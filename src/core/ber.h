// Bit-error-ratio measurement with statistical confidence.
//
// "Zero BER" in the paper means no errors observed over the simulation
// window; this module makes that statement quantitative via the standard
// confidence-level treatment (an error-free run of N bits bounds the true
// BER below -ln(1-CL)/N).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/link.h"

namespace serdes::core {

struct BerMeasurement {
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  double ber = 0.0;
  /// Upper bound on the true BER at the given confidence level.
  double ber_upper_bound = 0.0;
  double confidence_level = 0.95;
  bool aligned = true;

  [[nodiscard]] bool error_free() const { return aligned && errors == 0; }
};

/// Runs the link over `total_bits` of PRBS data split into chunks (each
/// chunk is an independent waveform with fresh noise), accumulating errors.
/// `on_chunk`, if set, sees every chunk's LinkResult as it completes —
/// api::Simulator uses it to lift diagnostics off the first chunk while
/// sharing this loop's BER accounting.
BerMeasurement measure_ber(
    SerDesLink& link, std::uint64_t total_bits,
    std::uint64_t chunk_bits = 4096, double confidence_level = 0.95,
    util::PrbsOrder order = util::PrbsOrder::kPrbs31,
    const std::function<void(const LinkResult&)>& on_chunk = {});

/// Scores one run's recovered payload (result.rx.payload) against the
/// `payload` sent: bit errors, bits compared and BER.  Bits the receiver
/// never produced at the end of an aligned run count as errors beyond the
/// CDR pipeline allowance (SerDesLink::kCdrTailAllowanceBits per symbol).
void score_payload(const LinkConfig& config,
                   const std::vector<std::uint8_t>& payload,
                   LinkResult& result);

/// Upper bound of true BER given an observation (Poisson/chi-square based;
/// exact for zero errors, a good approximation otherwise).
double ber_upper_bound(std::uint64_t bits, std::uint64_t errors,
                       double confidence_level);

}  // namespace serdes::core
