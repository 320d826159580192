#include "core/ber.h"

#include <algorithm>
#include <cmath>

namespace serdes::core {

double ber_upper_bound(std::uint64_t bits, std::uint64_t errors,
                       double confidence_level) {
  if (bits == 0) return 1.0;
  // Poisson upper limit on the mean given `errors` observed:
  // for k=0, mu_up = -ln(1-CL); for k>0 use the Pearson-Hartley
  // approximation mu_up ≈ k + z*sqrt(k) + (z^2+2)/3 with z the normal
  // quantile of CL (accurate enough for link budgeting).
  double mu_up;
  if (errors == 0) {
    mu_up = -std::log(1.0 - confidence_level);
  } else {
    // Normal quantile via inverse error function relation.
    const double z = std::sqrt(2.0) *
                     [](double p) {
                       // Acklam-style rational approximation of erfinv
                       // through the quantile of the standard normal.
                       // For our CL range (0.8..0.999) a simple Newton on
                       // erf is robust.
                       double x = 0.0;
                       for (int i = 0; i < 60; ++i) {
                         const double err = std::erf(x) - p;
                         const double d =
                             2.0 / std::sqrt(3.141592653589793) *
                             std::exp(-x * x);
                         x -= err / d;
                       }
                       return x;
                     }(2.0 * confidence_level - 1.0);
    const double k = static_cast<double>(errors);
    mu_up = k + z * std::sqrt(k) + (z * z + 2.0) / 3.0;
  }
  return std::min(1.0, mu_up / static_cast<double>(bits));
}

void score_payload(const LinkConfig& config,
                   const std::vector<std::uint8_t>& payload,
                   LinkResult& result) {
  const auto& got = result.rx.payload;
  const std::size_t n = std::min(payload.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((payload[i] != 0) != (got[i] != 0)) ++result.bit_errors;
  }
  result.payload_bits_compared = n;
  // Bits the receiver never produced (truncated tail) count as errors once
  // they exceed the CDR pipeline allowance of a couple of UIs.  Unaligned
  // runs are excluded: there the whole chunk is already charged as lost by
  // the BER accounting in measure_ber.
  if (result.aligned && payload.size() > got.size()) {
    const std::uint64_t missing = payload.size() - got.size();
    // The allowance is per recovered symbol: PAM4 loses 2 bits per UI the
    // CDR pipeline still holds at end of stream.
    const std::uint64_t allowance =
        SerDesLink::kCdrTailAllowanceBits *
        static_cast<std::uint64_t>(config.bits_per_ui());
    if (missing > allowance) {
      const std::uint64_t lost = missing - allowance;
      result.bit_errors += lost;
      result.payload_bits_compared += lost;
    }
  }
  if (result.payload_bits_compared > 0) {
    result.ber = static_cast<double>(result.bit_errors) /
                 static_cast<double>(result.payload_bits_compared);
  }
}

BerMeasurement measure_ber(
    SerDesLink& link, std::uint64_t total_bits, std::uint64_t chunk_bits,
    double confidence_level, util::PrbsOrder order,
    const std::function<void(const LinkResult&)>& on_chunk) {
  BerMeasurement m;
  m.confidence_level = confidence_level;
  util::PrbsGenerator prbs(order);
  // Footage is tracked by bits *sent*, not bits compared: an aligned chunk
  // may compare slightly fewer bits than it carried (the CDR pipeline's
  // tail allowance), and a residual micro-chunk re-run for that deficit
  // could never align — it would poison the whole measurement.
  std::uint64_t sent = 0;
  while (sent < total_bits) {
    const std::uint64_t n = std::min(chunk_bits, total_bits - sent);
    sent += n;
    const auto payload = prbs.next_bits(static_cast<std::size_t>(n));
    const LinkResult r = link.run(payload);
    if (on_chunk) on_chunk(r);
    if (!r.aligned) {
      // Alignment failure: every payload bit in the chunk is lost.
      m.aligned = false;
      m.errors += n;
      m.bits += n;
      continue;
    }
    m.bits += r.payload_bits_compared;
    m.errors += r.bit_errors;
    // Bits the receiver truncated (pipeline tail) beyond the CDR allowance
    // are already charged as errors inside LinkResult (score_payload);
    // only the small allowance itself is excluded from both counts.
  }
  if (m.bits > 0) {
    m.ber = static_cast<double>(m.errors) / static_cast<double>(m.bits);
  }
  m.ber_upper_bound = ber_upper_bound(m.bits, m.errors, confidence_level);
  return m;
}

}  // namespace serdes::core
