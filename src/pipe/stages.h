// The scalar ends of the streaming TX -> channel -> noise -> EQ -> RX
// datapath: the lane-invariant head every lane shares, and the
// sampler/CDR sink every lane ends in.  The per-lane middle (AWGN fan-out,
// CTLE, RFI, restoring inverter, capture taps) is pipe/lane_stages.h; the
// one two-pass run that chains them all is core::run_link_tile.
//
// Each piece reproduces the arithmetic of its whole-waveform counterpart
// exactly, sample by sample, while carrying state (filter memories, RNG
// streams, rolling sample windows) across blocks — so a stream processed
// at any block size is bit-identical to the whole-waveform models (the
// tests' reference run).
//
//   LevelPulseSource   — NRZ / TX-FFE / PAM4 pulse shaper (Waveform::nrz
//                        and TxFfe::shape, blockwise)
//   XtalkInjectStage   — FEXT/NEXT aggressor injection into the shared
//                        post-channel stream
//   SamplerCdrSink     — the one sampler/CDR sink: per-lane jittered
//                        multiphase sampling, NRZ or PAM4 slicers, DFE
//                        feedback and oversampling CDR over one rolling
//                        interleaved window (a single link = one lane)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analog/sampler.h"
#include "channel/channel.h"
#include "channel/noise.h"
#include "digital/cdr.h"
#include "digital/sampling.h"
#include "pipe/block.h"
#include "pipe/lane_block.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::pipe {

/// Block source: interpolates per-bit launch levels into the line waveform
/// exactly like Waveform::nrz / TxFfe::shape (linear-ramp edges of
/// `rise_time` centred on bit boundaries).
class LevelPulseSource {
 public:
  LevelPulseSource(std::vector<double> levels, util::Second unit_interval,
                   int samples_per_ui, util::Second rise_time,
                   util::Second stream_t0, double fill_level = 0.0);

  /// Fills `out` with the next up-to-`max_samples` samples; returns the
  /// count produced (0 once the stream is exhausted).  Marks the block
  /// `last` when it ends the stream.
  std::size_t produce(Block& out, std::size_t max_samples);

  void reset() { pos_ = 0; }

  [[nodiscard]] std::uint64_t total_samples() const { return total_; }
  [[nodiscard]] util::Second dt() const { return dt_; }
  [[nodiscard]] util::Second stream_t0() const { return t0_; }
  [[nodiscard]] const std::vector<double>& levels() const { return levels_; }

 private:
  std::vector<double> levels_;
  util::Second ui_;
  util::Second dt_;
  util::Second t0_;
  double tr_;
  double fill_;
  std::uint64_t total_;
  std::uint64_t pos_ = 0;
  // Per-block instant / bit-quotient scratch (flat passes vectorize the
  // multiply and divide; see produce()).
  std::vector<double> scratch_t_;
  std::vector<double> scratch_q_;
};

/// Crosstalk injection into the shared (lane-invariant) victim stream:
/// gain-scaled, UI-delayed copies of aggressor TX streams, each optionally
/// filtered through a private stream of the victim's channel (FEXT), added
/// to every passing block.  All lanes of a bus carry the same framed PRBS
/// stream, so an aggressor's launch levels are the victim's, shifted.
class XtalkInjectStage {
 public:
  struct Path {
    /// Aggressor launch levels with the delay prepended (`delay_ui` idle
    /// levels); must span at least as many UIs as the victim stream.
    std::vector<double> levels;
    double gain = 0.0;
    /// FEXT: filter the aggressor stream through this (victim-channel)
    /// stream before injection.  nullptr = NEXT (direct injection).
    std::unique_ptr<channel::Channel::Stream> channel_stream;
  };

  /// Geometry must match the victim's TX source so aggressor samples line
  /// up positionally with victim samples.
  XtalkInjectStage(std::vector<Path> paths, util::Second unit_interval,
                   int samples_per_ui, util::Second rise_time,
                   util::Second stream_t0);

  void process(const BlockView& in, Block& out);

 private:
  struct Aggressor {
    LevelPulseSource source;
    double gain;
    std::unique_ptr<channel::Channel::Stream> channel_stream;
  };
  std::vector<Aggressor> aggressors_;
  Block scratch_;
};

/// Terminal sink: the receiver's sampling elements (DFF slicers at
/// jittered multiphase instants) and oversampling CDR, evaluated
/// incrementally over a rolling window of the sampler-input stream, for a
/// tile of one or more lanes.  Every lane keeps its own sampling cursor,
/// jitter model, slicers, CDR and DFE history, all fed from one shared
/// interleaved window, so lane l reproduces digital::sample_waveform +
/// OversamplingCdr::recover over lane l alone bit-for-bit (including the
/// end-of-stream clamping of Waveform::value_at); a lane whose instant
/// still waits on the next block never stalls the others' RNG draw order.
/// Holds O(block + aperture/jitter span) samples regardless of stream
/// length.  A single link is the one-lane tile.
///
/// The slicer thresholds are the modulation.  One threshold is NRZ: one
/// slicer per instant feeding OversamplingCdr::push.  Three thresholds
/// (low < mid < high) are PAM4: the mid, low and high slicers draw in that
/// order, the gray code ((0,0) (0,1) (1,1) (1,0) for levels 0..3) reduces
/// them to MSB = above mid and LSB = above low AND not above high, and the
/// CDR consumes both rails through push2 (edges and phase picks on MSB).
class SamplerCdrSink {
 public:
  struct Config {
    /// Symbol rate: the clock the multiphase generator runs at (the bit
    /// rate under NRZ, half of it under PAM4).
    util::Hertz symbol_rate;
    int oversampling = 5;
    util::Second phase_offset{0.0};
    double ppm_offset = 0.0;
    /// Settings shared by every lane; the seed vectors below replace the
    /// seed fields lane by lane, and `thresholds` the slicer threshold.
    channel::JitterModel::Config jitter{};
    analog::DffSampler::Config sampler{};
    digital::CdrConfig cdr{};
    /// Ascending slicer thresholds: {t} (NRZ) or {low, mid, high} (PAM4).
    std::vector<double> thresholds;
    /// One entry per lane (equal, non-zero lengths).  Lane l's slicers
    /// draw from sampler_seeds[l] + 0/1/2 in draw order (mid, low, high).
    std::vector<std::uint64_t> jitter_seeds;
    std::vector<std::uint64_t> sampler_seeds;
    /// DFE post-cursor taps (volts in the sink's input domain), shared
    /// by every lane.  Tap k is weighted by the feedback symbol from k+1
    /// UIs ago; empty disables the feedback path entirely (and all-zero
    /// taps are bit-identical to it — the correction is exactly 0.0).
    std::vector<double> dfe_taps;
    /// Stream geometry (known up front: framed symbols x samples per UI).
    std::uint64_t total_samples = 0;
    util::Second stream_t0{0.0};
    util::Second dt{1e-12};
    /// Block size hint used to size the rolling window.
    std::size_t block_samples = 16384;
  };

  explicit SamplerCdrSink(const Config& config);

  /// Appends one tile and evaluates, per lane, every sampling instant
  /// whose needed neighbourhood is now available.
  void consume(const LaneView& in);
  void consume(const BlockView& in) { consume(as_tile(in)); }

  /// Evaluates the remaining instants with end-of-stream clamping.
  void finish();

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  [[nodiscard]] const digital::OversamplingCdr& cdr(std::size_t lane) const {
    return lanes_[lane].cdr;
  }
  /// Lane `lane`'s recovered bit stream (PAM4: MSB/LSB interleaved per
  /// symbol, MSB first — the TX gray mapping's inverse).
  [[nodiscard]] std::vector<std::uint8_t> recovered_bits(
      std::size_t lane) const;
  [[nodiscard]] std::uint64_t metastable_count(std::size_t lane) const;

 private:
  // ---- Decision-feedback equalizer state (per lane) -------------------------
  // The correction for UI n is latched once, when the UI's first instant
  // is generated: c_n = sum_k taps[k] * w_{n-1-k}, a per-UI step function
  // subtracted from every fetched value of the UI (all three aperture
  // fetches of every phase), so the glitch-filter votes see one
  // consistent summing-node waveform.  The feedback symbol w_n comes from
  // a pure comparator ladder over the thresholds (no RNG draw — the
  // slicers' noise/metastable streams stay untouched) at the CDR's pick
  // phase, weighted -1 .. +1 in equal steps ({-1, +1} NRZ, {-1, -1/3,
  // +1/3, +1} PAM4), and enters the history at the UI wrap: strictly
  // causal.
  struct Lane {
    Lane(const channel::JitterModel::Config& j, const digital::CdrConfig& c)
        : jitter(j), cdr(c) {}
    channel::JitterModel jitter;
    digital::OversamplingCdr cdr;
    double first_sample = 0.0;
    double last_sample = 0.0;
    std::uint64_t ui = 0;
    int phase = 0;
    std::optional<util::Second> pending;
    bool done = false;
    std::vector<double> dfe_hist;  // w_{n-1}, w_{n-2}, ...; 0 pre-stream
    double dfe_corr = 0.0;
    int dfe_fb_phase = 0;
    bool dfe_fb_decided = false;
    double dfe_fb_w = 0.0;
  };

  /// Evaluates lane `lane`'s instants while their neighbourhoods (or
  /// end-of-stream clamping) are available.
  void drain(std::size_t lane);

  digital::MultiphaseClockGenerator clocks_;  // config-only: shared
  std::vector<Lane> lanes_;
  std::vector<analog::DffSampler> slicers_;  // lane-major, draw order
  std::vector<double> thresholds_;           // ascending
  std::size_t nlanes_;
  std::size_t nslicers_;

  std::uint64_t total_;
  util::Second t0_;
  util::Second dt_;
  util::Second end_;
  util::Second ap_half_;

  /// Interleaved rolling window: stream sample i of lane l lives at
  /// ring_[(i & mask_) * lanes + l]; the capacity is a power of two of
  /// sample indices, so the index wrap is a mask, not a division.
  std::vector<double> ring_;
  std::size_t mask_ = 0;  // sample-index capacity - 1
  std::size_t back_samples_ = 0;
  std::uint64_t appended_ = 0;
  bool has_first_ = false;
  bool has_last_ = false;

  std::vector<double> dfe_taps_;
};

}  // namespace serdes::pipe
