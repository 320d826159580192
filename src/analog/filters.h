// Discrete-time filters used for channel and front-end modelling.
//
// All filters expose a per-sample `step`, a whole-Waveform `process`, and
// a span kernel `process_block(in, out, n)` that runs the same recurrence
// over a contiguous block with the coefficients and state held in locals —
// the form the streaming pipeline's hot loops use.  `step` bodies live in
// this header so stage loops that mix filters with other per-sample work
// still fold everything into one loop.  Block and per-sample forms are
// bit-identical by construction (same operations in the same order).
#pragma once

#include <vector>

#include "analog/waveform.h"
#include "util/units.h"

namespace serdes::analog {

/// Common interface so channels can compose arbitrary filter chains.
class Filter {
 public:
  virtual ~Filter() = default;
  /// Processes one input sample.
  virtual double step(double x) = 0;
  /// Resets internal state to zero.
  virtual void reset() = 0;

  /// Runs the filter across a waveform (in place), returning it.
  Waveform& process(Waveform& w);
};

/// One-pole low-pass: H(s) = 1 / (1 + s/wc), discretised by the bilinear
/// transform.  `configure` must be called (or the ctor used) before step.
class OnePoleLowPass : public Filter {
 public:
  OnePoleLowPass(util::Hertz cutoff, util::Second sample_period);

  double step(double x) override {
    const double y = b_ * (x + x1_) + a_ * y1_;
    x1_ = x;
    y1_ = y;
    return y;
  }

  /// Span kernel: the recurrence over a contiguous block, state carried.
  /// `in` and `out` may alias.
  void process_block(const double* in, double* out, std::size_t n) {
    const double b = b_;
    const double a = a_;
    double x1 = x1_;
    double y1 = y1_;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = in[i];
      const double y = b * (x + x1) + a * y1;
      x1 = x;
      y1 = y;
      out[i] = y;
    }
    x1_ = x1;
    y1_ = y1;
  }

  /// Lane-batched span kernel over an interleaved SoA tile — value (i, l)
  /// at in[i * lanes + l] — with caller-owned per-lane state arrays
  /// x1[lanes] / y1[lanes].  The recurrence runs independently per lane in
  /// the same operation order as process_block, so lane l of a tile is
  /// bit-identical to a scalar filter over lane l alone; the inner lane
  /// loop carries no dependence and vectorizes (explicit AVX2 for
  /// lanes == 8, non-FMA so the rounding matches the scalar loop; lanes ==
  /// 1 keeps the state in registers like process_block).
  /// `in` and `out` may alias.
  void process_lanes(const double* in, double* out, std::size_t n,
                     std::size_t lanes, double* x1, double* y1) const;

  void reset() override { x1_ = y1_ = 0.0; }
  [[nodiscard]] util::Hertz cutoff() const { return cutoff_; }

 private:
  util::Hertz cutoff_;
  double a_ = 0.0;  // output feedback coefficient
  double b_ = 1.0;  // input coefficient
  double y1_ = 0.0;
  double x1_ = 0.0;
};

/// One-pole high-pass (AC-coupling): H(s) = s/(s + wc), bilinear.
class OnePoleHighPass : public Filter {
 public:
  OnePoleHighPass(util::Hertz cutoff, util::Second sample_period);

  double step(double x) override {
    const double y = b_ * (x - x1_) + a_ * y1_;
    x1_ = x;
    y1_ = y;
    return y;
  }

  void reset() override { x1_ = y1_ = 0.0; }

 private:
  double a_ = 0.0;
  double b_ = 1.0;
  double y1_ = 0.0;
  double x1_ = 0.0;
};

/// Second-order low-pass biquad (RBJ cookbook, bilinear).  No contiguous
/// span kernel: nothing on the streaming datapath runs a scalar biquad
/// (add one alongside a caller if that changes); the lane-batched SoA
/// kernel below serves multi-lane filter chains.
class BiquadLowPass : public Filter {
 public:
  BiquadLowPass(util::Hertz cutoff, double q, util::Second sample_period);

  double step(double x) override {
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }

  /// Lane-batched SoA kernel (see OnePoleLowPass::process_lanes): the
  /// biquad recurrence per lane with caller-owned state arrays
  /// x1/x2/y1/y2 of `lanes` entries each, bit-identical per lane to a
  /// scalar filter stepped over that lane.  `in`/`out` may alias.
  void process_lanes(const double* in, double* out, std::size_t n,
                     std::size_t lanes, double* x1, double* x2, double* y1,
                     double* y2) const;

  void reset() override { x1_ = x2_ = y1_ = y2_ = 0.0; }

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

/// Direct-form FIR (per-sample delay line).  Streaming channels use the
/// contiguous dsp::BlockFir kernel instead; this stays as the composable
/// per-sample form (equalizers, tests).
class FirFilter : public Filter {
 public:
  explicit FirFilter(std::vector<double> taps);
  double step(double x) override;
  void reset() override;
  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

 private:
  std::vector<double> taps_;
  std::vector<double> history_;
  std::size_t pos_ = 0;
};

/// Magnitude response |H(f)| of a filter measured empirically by running a
/// sinusoid through a fresh copy of the filter chain (useful for tests).
double measure_gain(Filter& filter, util::Hertz freq,
                    util::Second sample_period, int cycles = 60);

}  // namespace serdes::analog
