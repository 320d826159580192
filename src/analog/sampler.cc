#include "analog/sampler.h"

#include <cmath>

#include "util/math.h"

namespace serdes::analog {

RestoringInverter::RestoringInverter(double wn_um, double wp_um,
                                     util::Volt vdd,
                                     util::Second sample_period,
                                     util::Farad load)
    : cell_(wn_um, wp_um, vdd), dt_(sample_period), vdd_(vdd.value()) {
  threshold_ = cell_.switching_threshold();
  const double rout_drive = 0.5 * (cell_.drive_resistance_n().value() +
                                   cell_.drive_resistance_p().value());
  const double c = load.value() + cell_.output_cap().value();
  bandwidth_ =
      util::hertz(1.0 / (2.0 * 3.141592653589793 * rout_drive * c));
  // Sample the VTC once; per-sample bisection would dominate runtime.
  constexpr int kLutPoints = 512;
  vtc_lut_.reserve(kLutPoints + 1);
  for (int i = 0; i <= kLutPoints; ++i) {
    const double vin = vdd_ * static_cast<double>(i) / kLutPoints;
    vtc_lut_.push_back(cell_.vtc(vin));
  }
}

Waveform RestoringInverter::process(const Waveform& in) const {
  Waveform out = in;
  std::vector<double>& samples = out.samples();
  restore_block(samples.data(), samples.data(), samples.size());
  OnePoleLowPass pole(bandwidth_, dt_);
  pole.process(out);
  return out;
}

DffSampler::DffSampler(const Config& config)
    : config_(config), rng_(config.seed) {}

bool DffSampler::sample(const Waveform& w, util::Second t) {
  const double v = w.value_at(t);
  const double v_before = w.value_at(t - config_.aperture * 0.5);
  const double v_after = w.value_at(t + config_.aperture * 0.5);
  return decide(v, v_before, v_after);
}

}  // namespace serdes::analog
