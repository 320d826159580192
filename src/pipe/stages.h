// Concrete streaming stages for the TX -> channel -> noise -> EQ -> RX
// datapath.
//
// Each stage reproduces the arithmetic of its whole-waveform counterpart
// exactly, sample by sample, while carrying state (filter memories, RNG
// streams, rolling sample windows) across blocks — so a stream processed
// at any block size is bit-identical to the whole-waveform models (the
// tests' reference run).
//
//   LevelPulseSource   — NRZ / TX-FFE pulse shaper (Waveform::nrz and
//                        TxFfe::shape, blockwise)
//   ChannelStage       — wraps a channel::Channel::Stream
//   AwgnStage          — Waveform::add_noise with a carried RNG
//   CtleStage          — channel::RxCtle::equalize with a carried pole
//   RfiFrontEndStage   — analog::RfiStage::process given the stream DC mean
//   RestoringStage     — analog::RestoringInverter::process, blockwise
//   WaveformTapStage   — pass-through probe retaining the diagnostic window
//   SamplerCdrSink     — the one sampler/CDR sink: per-lane jittered
//                        multiphase sampling, NRZ or PAM4 slicers, DFE
//                        feedback and oversampling CDR over one rolling
//                        interleaved window (scalar = one lane)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analog/filters.h"
#include "analog/rfi.h"
#include "analog/sampler.h"
#include "analog/waveform.h"
#include "channel/channel.h"
#include "channel/noise.h"
#include "digital/cdr.h"
#include "digital/sampling.h"
#include "pipe/lane_block.h"
#include "pipe/stage.h"
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

/// Streams blocks through a channel model (carrying its filter state).
class ChannelStage final : public Stage {
 public:
  explicit ChannelStage(std::unique_ptr<channel::Channel::Stream> stream)
      : stream_(std::move(stream)) {}

  void process(const BlockView& in, Block& out) override {
    out.match(in);
    stream_->transmit_block(in.data, out.data(), in.size);
  }
  void reset() override { stream_->reset(); }
  [[nodiscard]] std::string_view name() const override { return "channel"; }

 private:
  std::unique_ptr<channel::Channel::Stream> stream_;
};

/// Additive white gaussian noise with a carried deterministic RNG —
/// blockwise Waveform::add_noise.
class AwgnStage final : public Stage {
 public:
  AwgnStage(double sigma, std::uint64_t seed)
      : sigma_(sigma), seed_(seed), rng_(seed) {}

  void process(const BlockView& in, Block& out) override;
  void reset() override { rng_ = util::Rng(seed_); }
  [[nodiscard]] std::string_view name() const override { return "awgn"; }

 private:
  double sigma_;
  std::uint64_t seed_;
  util::Rng rng_;
};

/// CTLE peaking stage: out = x + k*(x - LPF(x)), pole state carried.
class CtleStage final : public Stage {
 public:
  CtleStage(util::Decibel boost, util::Hertz pole, util::Second dt)
      : k_(util::db_to_amplitude(boost) - 1.0), lpf_(pole, dt) {}

  void process(const BlockView& in, Block& out) override;
  void reset() override { lpf_.reset(); }
  [[nodiscard]] std::string_view name() const override { return "ctle"; }

 private:
  double k_;
  analog::OnePoleLowPass lpf_;
  std::vector<double> scratch_;  // low-passed block (keeps in/out aliasable)
};

/// RFI front end: DC removal (the stream mean, supplied via set_mean once
/// known), output pole, saturating VTC — blockwise analog::RfiStage.
class RfiFrontEndStage final : public Stage {
 public:
  RfiFrontEndStage(const analog::RfiStage& rfi, util::Second dt)
      : rfi_(&rfi), lpf_(rfi.bandwidth(), dt) {}

  /// The full-stream DC mean the whole-waveform RFI model subtracts; must
  /// be set before the first block (SerDesLink measures it in a first
  /// streaming pass over the cheap front half of the datapath).
  void set_mean(double mean) { delta_ = -mean; }

  void process(const BlockView& in, Block& out) override;
  void reset() override { lpf_.reset(); }
  [[nodiscard]] std::string_view name() const override { return "rfi"; }

 private:
  const analog::RfiStage* rfi_;
  analog::OnePoleLowPass lpf_;
  double delta_ = 0.0;
};

/// Rail-restoring inverter: VTC lookup then output pole, state carried.
class RestoringStage final : public Stage {
 public:
  RestoringStage(const analog::RestoringInverter& inv, util::Second dt)
      : inv_(&inv), pole_(inv.bandwidth(), dt) {}

  void process(const BlockView& in, Block& out) override;
  void reset() override { pole_.reset(); }
  [[nodiscard]] std::string_view name() const override { return "restore"; }

 private:
  const analog::RestoringInverter* inv_;
  analog::OnePoleLowPass pole_;
};

/// Pass-through probe that retains up to `max_samples` of whatever flows
/// past it — the optional waveform-capture tap.  The link only inserts
/// taps while diagnostics capture is on (the first chunk of a BER run), so
/// bulk streaming never accumulates waveform memory.
class WaveformTapStage final : public Stage {
 public:
  explicit WaveformTapStage(
      std::size_t max_samples = static_cast<std::size_t>(-1))
      : max_samples_(max_samples) {}

  void process(const BlockView& in, Block& out) override;
  void reset() override { captured_.clear(); }
  [[nodiscard]] std::string_view name() const override { return "tap"; }

  /// Moves the captured window out as a Waveform (stream t0 / dt stamped).
  [[nodiscard]] analog::Waveform take();

 private:
  std::size_t max_samples_;
  std::vector<double> captured_;
  util::Second t0_{0.0};
  util::Second dt_{1e-12};
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
/// length.  A scalar stream is the one-lane tile.
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
  void consume(const BlockView& in) {
    consume(LaneView{in.data, in.size, 1, in.start_index, in.stream_t0,
                     in.dt, in.last});
  }

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

  void drain(std::size_t lane);
  /// Fused availability test + logical-stream interpolation: writes the
  /// Waveform::value_at-identical sample of lane `lane` into `*v` and
  /// returns true iff the instant's neighbourhood has arrived (or
  /// end-of-stream clamping applies).
  [[nodiscard]] bool fetch(std::size_t lane, util::Second t, double* v) const;

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
