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
//   SamplerCdrSink     — multiphase sampling + DFF + oversampling CDR over a
//                        rolling block window
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

/// Terminal sink: multiphase sampling instants (with jitter), DFF decision
/// and oversampling CDR, evaluated incrementally over a rolling window of
/// the restored waveform.  Holds O(block + aperture/jitter span) samples
/// regardless of stream length, and reproduces digital::sample_waveform +
/// OversamplingCdr::recover bit-for-bit (including the end-of-waveform
/// clamping of Waveform::value_at).
class SamplerCdrSink {
 public:
  struct Config {
    util::Hertz bit_rate;
    int oversampling = 5;
    util::Second phase_offset{0.0};
    double ppm_offset = 0.0;
    channel::JitterModel::Config jitter{};
    analog::DffSampler::Config sampler{};
    digital::CdrConfig cdr{};
    /// DFE post-cursor taps (volts in the sink's input domain).  Tap k
    /// is weighted by the feedback decision from k+1 UIs ago; empty
    /// disables the feedback path entirely (and all-zero taps are
    /// bit-identical to it — the correction is exactly 0.0).
    std::vector<double> dfe_taps;
    /// Stream geometry (known up front: framed bits x samples per UI).
    std::uint64_t total_samples = 0;
    util::Second stream_t0{0.0};
    util::Second dt{1e-12};
    /// Block size hint used to size the rolling window.
    std::size_t block_samples = 16384;
  };

  explicit SamplerCdrSink(const Config& config);

  /// Appends one block and evaluates every sampling instant whose needed
  /// neighbourhood is now available.
  void consume(const BlockView& in);

  /// Evaluates the remaining instants with end-of-stream clamping.
  void finish();

  [[nodiscard]] const digital::OversamplingCdr& cdr() const { return cdr_; }
  [[nodiscard]] std::uint64_t metastable_count() const {
    return sampler_.metastable_count();
  }

 private:
  void drain();
  /// Fused availability test + logical-stream interpolation: writes the
  /// Waveform::value_at-identical sample into `*v` and returns true iff
  /// the instant's neighbourhood has arrived (or end-of-stream clamping
  /// applies).
  [[nodiscard]] bool fetch(util::Second t, double* v) const;

  digital::MultiphaseClockGenerator clocks_;
  channel::JitterModel jitter_;
  analog::DffSampler sampler_;
  digital::OversamplingCdr cdr_;

  std::uint64_t total_;
  util::Second t0_;
  util::Second dt_;
  util::Second end_;
  util::Second ap_half_;

  std::vector<double> ring_;  // power-of-two capacity
  std::size_t mask_ = 0;      // ring_.size() - 1
  std::size_t back_samples_ = 0;
  std::uint64_t appended_ = 0;
  double first_sample_ = 0.0;
  double last_sample_ = 0.0;
  bool has_first_ = false;
  bool final_ = false;

  std::uint64_t ui_ = 0;
  int phase_ = 0;
  std::optional<util::Second> pending_;
  bool done_ = false;

  // ---- Decision-feedback equalizer state -----------------------------------
  // The correction for UI n is latched once, when the UI's first instant
  // is generated: c_n = sum_k taps[k] * w_{n-1-k}, a per-UI step function
  // subtracted from every fetched value of the UI (all three aperture
  // fetches of every phase), so the glitch-filter votes see one
  // consistent summing-node waveform.  The feedback decision w_n comes
  // from a pure comparator (no RNG draw — the sampler's noise/metastable
  // streams stay untouched) at the CDR's current pick phase, and enters
  // the history at the UI wrap: strictly causal.
  bool dfe_on_ = false;
  std::vector<double> dfe_taps_;
  std::vector<double> dfe_hist_;  // w_{n-1}, w_{n-2}, ... in {+1,-1}, 0 pre-stream
  double dfe_thr_ = 0.0;          // comparator threshold (sampler's)
  double dfe_corr_ = 0.0;
  int dfe_fb_phase_ = 0;
  bool dfe_fb_decided_ = false;
  double dfe_fb_w_ = 0.0;
};

}  // namespace serdes::pipe
