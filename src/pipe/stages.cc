#include "pipe/stages.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsp/fft.h"

namespace serdes::pipe {

// ---- LevelPulseSource -------------------------------------------------------

LevelPulseSource::LevelPulseSource(std::vector<double> levels,
                                   util::Second unit_interval,
                                   int samples_per_ui, util::Second rise_time,
                                   util::Second stream_t0, double fill_level)
    : levels_(std::move(levels)),
      ui_(unit_interval),
      dt_(unit_interval / static_cast<double>(samples_per_ui)),
      t0_(stream_t0),
      tr_(rise_time.value()),
      fill_(fill_level),
      total_(levels_.size() * static_cast<std::uint64_t>(samples_per_ui)) {
  if (samples_per_ui < 2) {
    throw std::invalid_argument("LevelPulseSource: need >= 2 samples per UI");
  }
}

std::size_t LevelPulseSource::produce(Block& out, std::size_t max_samples) {
  const std::uint64_t remaining = total_ - pos_;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_samples, remaining));
  if (n == 0) return 0;

  out.samples().resize(n);
  out.set_start_index(pos_);
  out.set_stream_t0(t0_);
  out.set_dt(dt_);
  double* samples = out.data();

  // Identical per-sample arithmetic to Waveform::nrz / TxFfe::shape, indexed
  // by the absolute stream position so block boundaries are invisible.  The
  // instants and their bit quotients are precomputed in two flat passes so
  // the multiply and the divide vectorize; IEEE division is correctly
  // rounded in vector form too, so the quotients (and thus every decision
  // below) are bit-identical to the scalar loop.
  const double ui = ui_.value();
  const double dt = dt_.value();
  const double tr = tr_;
  const double half_tr = tr / 2.0;
  scratch_t_.resize(n);
  scratch_q_.resize(n);
  double* ts = scratch_t_.data();
  double* qs = scratch_q_.data();
  const std::uint64_t pos = pos_;
  for (std::size_t j = 0; j < n; ++j) {
    ts[j] = (static_cast<double>(pos + j) + 0.5) * dt;
  }
  for (std::size_t j = 0; j < n; ++j) qs[j] = ts[j] / ui;

  const double* levels = levels_.data();
  const std::size_t nbits = levels_.size();
  for (std::size_t j = 0; j < n; ++j) {
    const double t = ts[j];
    const auto bit = static_cast<std::size_t>(qs[j]);
    if (bit >= nbits) {
      samples[j] = fill_;
      continue;
    }
    const double lvl = levels[bit];
    double v = lvl;
    if (tr > 0.0) {
      // Blend across the transition centred at the bit boundary.
      const double t_in_bit = t - static_cast<double>(bit) * ui;
      if (bit > 0 && t_in_bit < half_tr) {
        const double prev = levels[bit - 1];
        const double x = (t_in_bit + half_tr) / tr;  // 0..1 across the edge
        v = prev + (lvl - prev) * x;
      } else if (bit + 1 < nbits && t_in_bit > ui - half_tr) {
        const double next = levels[bit + 1];
        const double x = (t_in_bit - (ui - half_tr)) / tr;
        v = lvl + (next - lvl) * x;
      }
    }
    samples[j] = v;
  }

  pos_ += n;
  out.set_last(pos_ == total_);
  return n;
}

// ---- AwgnStage --------------------------------------------------------------

void AwgnStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  const double sigma = sigma_;
  if (sigma > 0.0) {
    rng_.add_gaussian(in.data, samples, in.size, sigma);
  } else {
    std::copy(in.data, in.data + in.size, samples);
  }
}

// ---- CtleStage --------------------------------------------------------------

void CtleStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  // Same arithmetic as the per-sample loop, as two span passes: the pole
  // runs with its state in registers, then the peaking combine vectorizes.
  // The low-passed signal goes through scratch (not `out`) so the stage
  // stays safe when `out` aliases `in`, like every other stage.
  scratch_.resize(in.size);
  lpf_.process_block(in.data, scratch_.data(), in.size);
  const double k = k_;
  const double* low = scratch_.data();
  for (std::size_t i = 0; i < in.size; ++i) {
    const double x = in.data[i];
    samples[i] = x + k * (x - low[i]);
  }
}

// ---- RfiFrontEndStage -------------------------------------------------------

void RfiFrontEndStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  const double delta = delta_;
  for (std::size_t i = 0; i < in.size; ++i) samples[i] = in.data[i] + delta;
  lpf_.process_block(samples, samples, in.size);
  // RfiStage::saturate with the loop-invariant loads hoisted; the formula
  // itself has one home (saturate_value).  tanh dominates what remains.
  const double bias = rfi_->bias();
  const double gain = rfi_->gain();
  const double half = rfi_->vdd() / 2.0;
  for (std::size_t i = 0; i < in.size; ++i) {
    samples[i] = analog::RfiStage::saturate_value(samples[i], bias, gain,
                                                  half);
  }
}

// ---- RestoringStage ---------------------------------------------------------

void RestoringStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  inv_->restore_block(in.data, samples, in.size);
  pole_.process_block(samples, samples, in.size);
}

// ---- WaveformTapStage -------------------------------------------------------

void WaveformTapStage::process(const BlockView& in, Block& out) {
  out.match(in);
  std::copy(in.data, in.data + in.size, out.data());
  if (captured_.empty()) {
    t0_ = in.stream_t0;
    dt_ = in.dt;
  }
  if (captured_.size() < max_samples_) {
    const std::size_t room = max_samples_ - captured_.size();
    const std::size_t take = std::min(room, in.size);
    captured_.insert(captured_.end(), in.data, in.data + take);
  }
}

analog::Waveform WaveformTapStage::take() {
  return analog::Waveform{t0_, dt_, std::move(captured_)};
}

// ---- SamplerCdrSink ---------------------------------------------------------

SamplerCdrSink::SamplerCdrSink(const Config& config)
    : clocks_(config.bit_rate, config.oversampling, config.phase_offset,
              config.ppm_offset),
      jitter_(config.jitter),
      sampler_(config.sampler),
      cdr_(config.cdr),
      total_(config.total_samples),
      t0_(config.stream_t0),
      dt_(config.dt),
      end_(config.stream_t0 +
           config.dt * static_cast<double>(config.total_samples)),
      ap_half_(config.sampler.aperture * 0.5),
      dfe_on_(!config.dfe_taps.empty()),
      dfe_taps_(config.dfe_taps),
      dfe_hist_(config.dfe_taps.size(), 0.0),
      dfe_thr_(config.sampler.threshold) {
  // The rolling window must span one appended block plus the worst-case
  // backward reach of a jittered aperture edge; anything older can be
  // discarded because instants are evaluated in order, as soon as their
  // forward neighbourhood arrives.  Power-of-two capacity so the absolute
  // index wrap is a mask, not a division.
  const double dt_s = config.dt.value();
  const double back_span_s = config.sampler.aperture.value() +
                             24.0 * config.jitter.random_rms.value() +
                             2.0 * config.jitter.sinusoidal_amplitude.value() +
                             4.0 * util::period(config.bit_rate).value();
  back_samples_ =
      static_cast<std::size_t>(back_span_s / dt_s) + 64;
  ring_.assign(dsp::next_pow2(std::max<std::size_t>(config.block_samples, 1) +
                              back_samples_),
               0.0);
  mask_ = ring_.size() - 1;
  if (total_ == 0) done_ = true;
}

void SamplerCdrSink::consume(const BlockView& in) {
  if (in.size + back_samples_ > ring_.size()) {
    // A block larger than the sizing hint arrived: grow the window before
    // writing, re-placing the live span under the new modulus, so oversized
    // blocks can never overwrite samples pending instants still need.
    std::vector<double> bigger(dsp::next_pow2(in.size + back_samples_), 0.0);
    const std::size_t new_mask = bigger.size() - 1;
    const std::uint64_t live =
        std::min<std::uint64_t>(appended_, ring_.size());
    for (std::uint64_t k = appended_ - live; k < appended_; ++k) {
      bigger[k & new_mask] = ring_[k & mask_];
    }
    ring_ = std::move(bigger);
    mask_ = new_mask;
  }
  double* ring = ring_.data();
  const std::size_t mask = mask_;
  const std::uint64_t start = in.start_index;
  for (std::size_t i = 0; i < in.size; ++i) {
    ring[(start + i) & mask] = in.data[i];
  }
  if (in.size > 0) {
    if (in.start_index == 0) {
      first_sample_ = in.data[0];
      has_first_ = true;
    }
    appended_ = in.start_index + in.size;
    if (appended_ == total_) {
      last_sample_ = in.data[in.size - 1];
      final_ = true;
    }
  }
  drain();
}

void SamplerCdrSink::finish() {
  if (!final_ && total_ > 0 && appended_ == total_) {
    last_sample_ = ring_[(total_ - 1) & mask_];
    final_ = true;
  }
  drain();
}

bool SamplerCdrSink::fetch(util::Second t, double* v) const {
  // Fused availability test + Waveform::value_at over the logical stream:
  // one (t - t0)/dt per time point instead of one for the test and one for
  // the read.  The arithmetic (and therefore every interpolated value) is
  // identical to the unfused pair.
  const double idx = (t - t0_) / dt_;
  if (idx <= 0.0) {
    if (!has_first_) return false;
    *v = first_sample_;
    return true;
  }
  const auto lo = static_cast<std::uint64_t>(idx);
  if (lo + 1 >= total_) {
    if (!final_) return false;
    *v = last_sample_;
    return true;
  }
  if (lo + 1 >= appended_) return false;
  const double frac = idx - static_cast<double>(lo);
  const double a = ring_[lo & mask_];
  const double b = ring_[(lo + 1) & mask_];
  *v = a + frac * (b - a);
  return true;
}

void SamplerCdrSink::drain() {
  while (!done_) {
    if (!pending_) {
      if (phase_ == 0) {
        const util::Second ui_start = clocks_.instant(ui_, 0);
        if (ui_start >= end_) {
          done_ = true;
          break;
        }
        if (dfe_on_) {
          // Latch this UI's feedback correction and decision phase before
          // its first instant is generated; both stay fixed across the
          // whole UI even when instants straddle block boundaries.
          double corr = 0.0;
          for (std::size_t k = 0; k < dfe_taps_.size(); ++k) {
            corr += dfe_taps_[k] * dfe_hist_[k];
          }
          dfe_corr_ = corr;
          dfe_fb_phase_ = cdr_.decision_phase();
          dfe_fb_decided_ = false;
        }
      }
      // Perturb exactly once per instant; the jitter RNG stream therefore
      // advances in the same order as the batch sampling loop even when an
      // instant has to wait for the next block.
      pending_ = jitter_.perturb(clocks_.instant(ui_, phase_));
    }
    const util::Second t = *pending_;
    double v;
    double v_before;
    double v_after;
    if (!fetch(t, &v) || !fetch(t - ap_half_, &v_before) ||
        !fetch(t + ap_half_, &v_after)) {
      break;  // wait for more samples (or the end of the stream)
    }
    if (dfe_on_) {
      // The per-UI correction shifts the whole summing node, so all three
      // aperture fetches move together (a zero correction is bit-exact:
      // v - 0.0 == v) and the metastability crossing product is preserved.
      v -= dfe_corr_;
      v_before -= dfe_corr_;
      v_after -= dfe_corr_;
      if (!dfe_fb_decided_ && phase_ >= dfe_fb_phase_) {
        dfe_fb_w_ = v > dfe_thr_ ? 1.0 : -1.0;  // pure comparator, no RNG
        dfe_fb_decided_ = true;
      }
    }
    cdr_.push(sampler_.decide(v, v_before, v_after));
    pending_.reset();
    if (++phase_ == clocks_.phases()) {
      phase_ = 0;
      ++ui_;
      if (dfe_on_) {
        for (std::size_t k = dfe_taps_.size() - 1; k > 0; --k) {
          dfe_hist_[k] = dfe_hist_[k - 1];
        }
        dfe_hist_[0] = dfe_fb_decided_ ? dfe_fb_w_ : 0.0;
      }
    }
  }
}

}  // namespace serdes::pipe
