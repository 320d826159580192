#include "analog/waveform.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/math.h"

namespace serdes::analog {

Waveform::Waveform(util::Second t0, util::Second dt,
                   std::vector<double> samples)
    : t0_(t0), dt_(dt), samples_(std::move(samples)) {
  if (dt.value() <= 0.0) {
    throw std::invalid_argument("Waveform: sample period must be > 0");
  }
}

Waveform Waveform::constant(util::Second t0, util::Second dt, std::size_t n,
                            double level) {
  return Waveform{t0, dt, std::vector<double>(n, level)};
}

Waveform Waveform::nrz(const std::vector<std::uint8_t>& bits,
                       util::Second unit_interval, int samples_per_ui,
                       double low, double high, util::Second rise_time) {
  if (samples_per_ui < 2) {
    throw std::invalid_argument("Waveform::nrz: need >= 2 samples per UI");
  }
  const util::Second dt = unit_interval / static_cast<double>(samples_per_ui);
  const std::size_t n = bits.size() * static_cast<std::size_t>(samples_per_ui);
  std::vector<double> samples(n, low);

  auto level_of = [&](std::size_t bit_index) -> double {
    return bits[bit_index] ? high : low;
  };

  const double tr = rise_time.value();
  const double ui = unit_interval.value();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (static_cast<double>(i) + 0.5) * dt.value();
    const auto bit = static_cast<std::size_t>(t / ui);
    if (bit >= bits.size()) break;
    const double lvl = level_of(bit);
    double v = lvl;
    if (tr > 0.0) {
      // Blend across the transition centred at the bit boundary.
      const double t_in_bit = t - static_cast<double>(bit) * ui;
      if (bit > 0 && t_in_bit < tr / 2.0) {
        const double prev = level_of(bit - 1);
        const double x = (t_in_bit + tr / 2.0) / tr;  // 0..1 across the edge
        v = prev + (lvl - prev) * x;
      } else if (bit + 1 < bits.size() && t_in_bit > ui - tr / 2.0) {
        const double next = level_of(bit + 1);
        const double x = (t_in_bit - (ui - tr / 2.0)) / tr;
        v = lvl + (next - lvl) * x;
      }
    }
    samples[i] = v;
  }
  return Waveform{util::seconds(0.0), dt, std::move(samples)};
}

double Waveform::value_at(util::Second t) const {
  if (samples_.empty()) return 0.0;
  const double idx = (t - t0_) / dt_;
  if (idx <= 0.0) return samples_.front();
  const auto lo = static_cast<std::size_t>(idx);
  if (lo + 1 >= samples_.size()) return samples_.back();
  const double frac = idx - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

Waveform& Waveform::scale(double gain) {
  for (double& s : samples_) s *= gain;
  return *this;
}

Waveform& Waveform::offset(double delta) {
  for (double& s : samples_) s += delta;
  return *this;
}

Waveform& Waveform::clamp(double lo, double hi) {
  for (double& s : samples_) s = util::clamp(s, lo, hi);
  return *this;
}

Waveform& Waveform::map(const std::function<double(double)>& f) {
  for (double& s : samples_) s = f(s);
  return *this;
}

Waveform& Waveform::add_noise(util::Rng& rng, double sigma) {
  if (sigma > 0.0) {
    rng.add_gaussian(samples_.data(), samples_.data(), samples_.size(), sigma);
  }
  return *this;
}

Waveform& Waveform::delay(util::Second delta) {
  t0_ += delta;
  return *this;
}

double Waveform::min_value() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Waveform::max_value() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Waveform::peak_to_peak() const { return max_value() - min_value(); }

double Waveform::mean_value() const { return util::mean(samples_); }

double Waveform::ac_rms() const {
  if (samples_.empty()) return 0.0;
  const double m = mean_value();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

std::vector<util::Second> Waveform::crossings(double threshold) const {
  std::vector<util::Second> out;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double a = samples_[i - 1] - threshold;
    const double b = samples_[i] - threshold;
    if (a == 0.0) continue;
    if ((a < 0.0 && b >= 0.0) || (a > 0.0 && b <= 0.0)) {
      const double frac = a / (a - b);
      out.push_back(time_at(i - 1) + dt_ * frac);
    }
  }
  return out;
}

util::Second Waveform::rise_time_20_80(util::Second after) const {
  const double lo = min_value();
  const double hi = max_value();
  const double v20 = lo + 0.2 * (hi - lo);
  const double v80 = lo + 0.8 * (hi - lo);
  // Find first upward crossing of v20 after `after`, then the next v80
  // crossing following it.
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (time_at(i) < after) continue;
    if (samples_[i - 1] < v20 && samples_[i] >= v20) {
      const double fa =
          (v20 - samples_[i - 1]) / (samples_[i] - samples_[i - 1]);
      const util::Second t20 = time_at(i - 1) + dt_ * fa;
      for (std::size_t j = i; j < samples_.size(); ++j) {
        if (samples_[j - 1] < v80 && samples_[j] >= v80) {
          const double fb =
              (v80 - samples_[j - 1]) / (samples_[j] - samples_[j - 1]);
          const util::Second t80 = time_at(j - 1) + dt_ * fb;
          return t80 - t20;
        }
        // Abort if the edge collapsed back below 20%.
        if (samples_[j] < v20) break;
      }
    }
  }
  return util::seconds(0.0);
}

}  // namespace serdes::analog
