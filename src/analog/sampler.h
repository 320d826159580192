// Sampling stage: static CMOS inverter + D flip-flop (paper Section IV-B-b).
//
// The RFI output is restored to rail-to-rail by a plain inverter, then a
// flip-flop samples it on the recovered clock.  The inverter's limited gain
// (versus a regenerative StrongARM latch) is what caps the receiver
// sensitivity at ~32 mV — the paper's key trade-off for synthesizability.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "analog/inverter.h"
#include "analog/filters.h"
#include "analog/waveform.h"
#include "util/math.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::analog {

/// Rail-restoring static inverter between the RFI and the flip-flop.
class RestoringInverter {
 public:
  RestoringInverter(double wn_um, double wp_um, util::Volt vdd,
                    util::Second sample_period,
                    util::Farad load = util::femtofarads(8.0));

  /// Applies the VTC (precomputed lookup) and the output pole.
  [[nodiscard]] Waveform process(const Waveform& in) const;

  /// The VTC lookup over a span: out[i] = the interpolated VTC at in[i]
  /// (clamped to the rails) — the per-sample map `process` applies before
  /// its output pole.  The streaming restoring stages call this so
  /// block-wise restoration is bit-identical to `process`.  The LUT scale
  /// and bounds are loaded once per span; `out` may alias `in`.
  void restore_block(const double* in, double* out, std::size_t n) const {
    const double* lut = vtc_lut_.data();
    const int last = static_cast<int>(vtc_lut_.size()) - 1;
    const double vdd = vdd_;
    const double scale = static_cast<double>(last) / vdd;
    const double top = static_cast<double>(last - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = util::clamp(in[i], 0.0, vdd) * scale;
      const int lo = x < top ? static_cast<int>(x) : last - 1;
      const double frac = x - lo;
      out[i] = lut[lo] + frac * (lut[lo + 1] - lut[lo]);
    }
  }

  /// One point of the VTC lookup (restore_block on a single sample).
  [[nodiscard]] double restore_level(double v) const {
    double out;
    restore_block(&v, &out, 1);
    return out;
  }

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] util::Hertz bandwidth() const { return bandwidth_; }
  [[nodiscard]] const InverterCell& cell() const { return cell_; }

 private:
  InverterCell cell_;
  util::Second dt_;
  util::Hertz bandwidth_;
  double threshold_;
  std::vector<double> vtc_lut_;  // sampled VTC, 0..vdd
  double vdd_;
};

/// Behavioural D flip-flop sampling an analog waveform.
class DffSampler {
 public:
  struct Config {
    double threshold = 0.9;                    // decision level [V]
    util::Second aperture = util::picoseconds(15.0);  // setup+hold window
    double input_noise_rms = 0.003;            // referred noise [V]
    std::uint64_t seed = 7;
  };

  explicit DffSampler(const Config& config);

  /// Samples `w` at time `t`.  If the input is inside the noise/aperture
  /// ambiguity band the result is random (metastable resolution).
  bool sample(const Waveform& w, util::Second t);

  /// The decision itself, given the waveform values at the sampling
  /// instant and at the aperture edges (t -/+ aperture/2).  `sample` is
  /// this applied to `Waveform::value_at`; the streaming receiver sink
  /// feeds it values interpolated from its rolling block window.  Inline:
  /// the sink evaluates it once per sampling instant.
  bool decide(double v, double v_before, double v_after) {
    const double noisy = v + rng_.gaussian(0.0, config_.input_noise_rms);
    // Metastability: if the input crosses the threshold inside the aperture
    // window around the sampling instant, the latch resolves randomly.
    const bool crossed = (v_before - config_.threshold) *
                             (v_after - config_.threshold) < 0.0;
    if (crossed && std::fabs(noisy - config_.threshold) <
                       2.0 * config_.input_noise_rms) {
      ++metastable_count_;
      return rng_.chance(0.5);
    }
    return noisy > config_.threshold;
  }

  /// Number of metastable (randomly resolved) samples so far.
  [[nodiscard]] std::uint64_t metastable_count() const {
    return metastable_count_;
  }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  util::Rng rng_;
  std::uint64_t metastable_count_ = 0;
};

}  // namespace serdes::analog
