// End-to-end SerDes link: transmitter -> channel -> receiver, plus BER
// accounting.  The top-level object every example and benchmark drives.
//
// Every receive run goes through one datapath, written once in link.cc
// (run_link_tile): the TX launch source feeds a lane-invariant head
// (channel, then crosstalk), which fans out at the receiver-input AWGN
// into a lane tile — CTLE, then under NRZ the RFI front end and the
// restoring inverter — ending in the one sampler/CDR sink.  A SerDesLink
// is the one-lane tile; core::LaneLink runs L lanes per tile; the EQ
// trainer replays the same stages (replay_sampler_input).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel.h"
#include "core/config.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"
#include "util/units.h"

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

  /// Transmits `payload` and compares what the receiver recovered: the
  /// one-lane run_link_tile, streamed in blocks of
  /// LinkConfig::stream_block_samples (O(block) waveform memory).
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

 private:
  LinkConfig config_;
  Transmitter tx_;
  Receiver rx_;
  std::unique_ptr<channel::Channel> channel_;
  std::uint64_t run_counter_ = 0;
};

/// One receive run of `payload` over a tile of lanes.  Lane l runs as a
/// link whose noise_seed is lane_seeds[l] (its jitter and slicer seeds),
/// on receiver-input AWGN seed awgn_seeds[l]; the lanes share the launch,
/// the channel and the crosstalk, and keep their own AWGN, filter state,
/// sampler/CDR and result.  Two passes: the first measures each lane's
/// swing and the sampler-path statistic (NRZ: the stream mean the RFI
/// front end subtracts; PAM4: the slicer thresholds), the second streams
/// the full datapath into the sink.  With `capture`, every result carries
/// the diagnostic waveforms, capped at config.capture_max_samples.
[[nodiscard]] std::vector<LinkResult> run_link_tile(
    const LinkConfig& config, const Transmitter& tx, const Receiver& rx,
    channel::Channel& channel, const std::vector<std::uint8_t>& payload,
    const std::vector<std::uint64_t>& lane_seeds,
    const std::vector<std::uint64_t>& awgn_seeds, bool capture);

/// The same datapath over launch `levels` starting at `stream_t0`, one
/// lane on AWGN seed `awgn_seed`, without a sampler/CDR sink: returns the
/// whole sampler input (restored under NRZ, equalized under PAM4).  The
/// EQ trainer's replay; config.xtalk applies as in run_link_tile.
[[nodiscard]] std::vector<double> replay_sampler_input(
    const LinkConfig& config, const Transmitter& tx, const Receiver& rx,
    channel::Channel& channel, std::vector<double> levels,
    util::Second stream_t0, std::uint64_t awgn_seed);

}  // namespace serdes::core
