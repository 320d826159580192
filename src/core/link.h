// End-to-end SerDes link: transmitter -> channel -> receiver, plus BER
// accounting.  The top-level object every example and benchmark drives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel.h"
#include "core/config.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"

namespace serdes::pipe {
class LevelPulseSource;
class SamplerCdrSink;
}  // namespace serdes::pipe

namespace serdes::core {

/// Outcome of one link run.
struct LinkResult {
  bool aligned = false;
  std::uint64_t payload_bits_sent = 0;
  std::uint64_t payload_bits_compared = 0;
  std::uint64_t bit_errors = 0;
  double ber = 0.0;
  /// Peak-to-peak swing at the receiver input (always populated, even when
  /// waveform capture is off).
  double rx_swing_pp = 0.0;
  /// Decision threshold the sampler(s) ran at: the restoring-stage midpoint
  /// under NRZ, the calibrated middle slicer threshold under PAM4.
  double decision_threshold = 0.0;
  ReceiveResult rx;
  /// TX output and channel output waveforms (for plotting / eye analysis).
  /// Empty when `LinkConfig::capture_waveforms` is false.
  analog::Waveform tx_out;
  analog::Waveform channel_out;

  [[nodiscard]] bool error_free() const {
    return aligned && bit_errors == 0 && payload_bits_compared > 0;
  }
};

class SerDesLink {
 public:
  /// Receiver bits missing at the end of an aligned run are tolerated up to
  /// this CDR pipeline allowance; anything beyond it counts as errors.
  static constexpr std::uint64_t kCdrTailAllowanceBits = 2;

  /// The link takes ownership of the channel model.
  SerDesLink(const LinkConfig& config, std::unique_ptr<channel::Channel> ch);

  /// Transmits `payload` and compares what the receiver recovered.  The
  /// datapath streams in blocks of LinkConfig::stream_block_samples (O(block)
  /// waveform memory); NRZ and PAM4 share it, down to one sampler/CDR sink
  /// whose slicer thresholds carry the modulation.
  [[nodiscard]] LinkResult run(const std::vector<std::uint8_t>& payload);

  /// Convenience: PRBS payload of `nbits` using the config's pattern order.
  [[nodiscard]] LinkResult run_prbs(std::size_t nbits);
  [[nodiscard]] LinkResult run_prbs(std::size_t nbits, util::PrbsOrder order);

  [[nodiscard]] const Transmitter& transmitter() const { return tx_; }
  [[nodiscard]] Receiver& receiver() { return rx_; }
  [[nodiscard]] const channel::Channel& channel() const { return *channel_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Toggles waveform capture after construction (see
  /// LinkConfig::capture_waveforms); api::Simulator keeps the first
  /// diagnostic chunk and drops waveforms for the bulk BER chunks.
  void set_capture_waveforms(bool capture) {
    config_.capture_waveforms = capture;
  }

  /// Shared head of every run (NRZ, PAM4 and the lane-batched LaneLink):
  /// the TX launch source for `payload`'s wire bits — per-symbol launch
  /// levels (NRZ, TX FFE or gray-mapped PAM4) and the stream time base.
  [[nodiscard]] static pipe::LevelPulseSource launch(
      const LinkConfig& config, const Transmitter& tx,
      const std::vector<std::uint8_t>& payload);

  /// The sampler/CDR sink every run ends in: one lane per entry of
  /// `lane_seeds` (each lane's jitter/slicers seeded from it as a scalar
  /// link's noise_seed), slicing at `thresholds`, over `source`'s stream.
  [[nodiscard]] static pipe::SamplerCdrSink make_sink(
      const LinkConfig& config, std::vector<double> thresholds,
      const std::vector<std::uint64_t>& lane_seeds,
      const pipe::LevelPulseSource& source);

  /// What lane `lane` of a drained sink recovered: bits, deframed
  /// payload, frames and CDR / metastability diagnostics.
  [[nodiscard]] static ReceiveResult receive(const LinkConfig& config,
                                             const pipe::SamplerCdrSink& sink,
                                             std::size_t lane);

  /// Shared tail of every run (NRZ, PAM4 and the lane-batched LaneLink):
  /// payload comparison, truncated-tail error accounting, BER, and
  /// waveform dropping per `config`'s capture setting.
  static void finalize_result(const LinkConfig& config,
                              const std::vector<std::uint8_t>& payload,
                              LinkResult& result);

 private:
  [[nodiscard]] LinkResult run_streaming(
      const std::vector<std::uint8_t>& payload, std::uint64_t noise_run_seed);
  void finalize(const std::vector<std::uint8_t>& payload, LinkResult& result) {
    finalize_result(config_, payload, result);
  }

  LinkConfig config_;
  Transmitter tx_;
  Receiver rx_;
  std::unique_ptr<channel::Channel> channel_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace serdes::core
