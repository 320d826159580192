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

// ---- XtalkInjectStage -------------------------------------------------------

XtalkInjectStage::XtalkInjectStage(std::vector<Path> paths,
                                   util::Second unit_interval,
                                   int samples_per_ui, util::Second rise_time,
                                   util::Second stream_t0) {
  aggressors_.reserve(paths.size());
  for (Path& p : paths) {
    aggressors_.push_back(Aggressor{
        LevelPulseSource(std::move(p.levels), unit_interval, samples_per_ui,
                         rise_time, stream_t0),
        p.gain, std::move(p.channel_stream)});
  }
}

void XtalkInjectStage::process(const BlockView& in, Block& out) {
  out.match(in);
  double* samples = out.data();
  std::copy(in.data, in.data + in.size, samples);
  for (Aggressor& a : aggressors_) {
    // The aggressor level vector spans at least the victim stream (delay
    // zeros prepended), so produce() always yields a full block here.
    const std::size_t n = a.source.produce(scratch_, in.size);
    double* contrib = scratch_.data();
    if (a.channel_stream) a.channel_stream->transmit_block(contrib, contrib, n);
    const double gain = a.gain;
    for (std::size_t i = 0; i < n; ++i) samples[i] += gain * contrib[i];
  }
}

// ---- SamplerCdrSink ---------------------------------------------------------

SamplerCdrSink::SamplerCdrSink(const Config& config)
    : clocks_(config.symbol_rate, config.oversampling, config.phase_offset,
              config.ppm_offset),
      thresholds_(config.thresholds),
      nlanes_(config.jitter_seeds.size()),
      nslicers_(config.thresholds.size()),
      total_(config.total_samples),
      t0_(config.stream_t0),
      dt_(config.dt),
      end_(config.stream_t0 +
           config.dt * static_cast<double>(config.total_samples)),
      ap_half_(config.sampler.aperture * 0.5),
      dfe_taps_(config.dfe_taps) {
  if (nlanes_ == 0 || config.sampler_seeds.size() != nlanes_) {
    throw std::invalid_argument(
        "SamplerCdrSink: jitter/sampler seed vectors must be the same "
        "non-zero length");
  }
  if (nslicers_ != 1 && nslicers_ != 3) {
    throw std::invalid_argument(
        "SamplerCdrSink: need 1 (NRZ) or 3 (PAM4) slicer thresholds");
  }
  // Draw order: the middle slicer first (it alone drives the CDR edges),
  // then the rest in ascending order — mid, low, high under PAM4.
  std::vector<double> draw_order{thresholds_[nslicers_ / 2]};
  for (std::size_t k = 0; k < nslicers_; ++k) {
    if (k != nslicers_ / 2) draw_order.push_back(thresholds_[k]);
  }
  lanes_.reserve(nlanes_);
  slicers_.reserve(nlanes_ * nslicers_);
  for (std::size_t l = 0; l < nlanes_; ++l) {
    channel::JitterModel::Config jc = config.jitter;
    jc.seed = config.jitter_seeds[l];
    lanes_.emplace_back(jc, config.cdr);
    lanes_.back().dfe_hist.assign(dfe_taps_.size(), 0.0);
    lanes_.back().done = total_ == 0;
    for (std::size_t k = 0; k < nslicers_; ++k) {
      analog::DffSampler::Config sc = config.sampler;
      sc.threshold = draw_order[k];
      sc.seed = config.sampler_seeds[l] + k;
      slicers_.emplace_back(sc);
    }
  }
  // The rolling window must span one appended block plus the worst-case
  // backward reach of a jittered aperture edge; anything older can be
  // discarded because instants are evaluated in order, as soon as their
  // forward neighbourhood arrives.
  const double dt_s = config.dt.value();
  const double back_span_s = config.sampler.aperture.value() +
                             24.0 * config.jitter.random_rms.value() +
                             2.0 * config.jitter.sinusoidal_amplitude.value() +
                             4.0 * util::period(config.symbol_rate).value();
  back_samples_ = static_cast<std::size_t>(back_span_s / dt_s) + 64;
  const std::size_t entries = dsp::next_pow2(
      std::max<std::size_t>(config.block_samples, 1) + back_samples_);
  ring_.assign(entries * nlanes_, 0.0);
  mask_ = entries - 1;
}

void SamplerCdrSink::consume(const LaneView& in) {
  const std::size_t lanes = nlanes_;
  if (in.lanes != lanes) {
    throw std::invalid_argument("SamplerCdrSink: lane count mismatch");
  }
  if (in.size + back_samples_ > mask_ + 1) {
    // A tile larger than the sizing hint arrived: grow the window before
    // writing, re-placing the live span under the new modulus, so
    // oversized tiles can never overwrite samples pending instants still
    // need.
    const std::size_t entries = dsp::next_pow2(in.size + back_samples_);
    std::vector<double> bigger(entries * lanes, 0.0);
    const std::uint64_t live = std::min<std::uint64_t>(appended_, mask_ + 1);
    for (std::uint64_t k = appended_ - live; k < appended_; ++k) {
      std::copy_n(ring_.data() + (k & mask_) * lanes, lanes,
                  bigger.data() + (k & (entries - 1)) * lanes);
    }
    ring_ = std::move(bigger);
    mask_ = entries - 1;
  }
  // The tile lands in at most two contiguous runs of the ring (it is
  // never longer than the ring minus the back span).
  const std::size_t at = in.start_index & mask_;
  const std::size_t head = std::min(in.size, mask_ + 1 - at);
  std::copy_n(in.data, head * lanes, ring_.data() + at * lanes);
  std::copy_n(in.data + head * lanes, (in.size - head) * lanes, ring_.data());
  if (in.size > 0) {
    if (in.start_index == 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        lanes_[l].first_sample = in.at(0, l);
      }
      has_first_ = true;
    }
    appended_ = in.start_index + in.size;
    if (appended_ == total_) {
      for (std::size_t l = 0; l < lanes; ++l) {
        lanes_[l].last_sample = in.at(in.size - 1, l);
      }
      has_last_ = true;
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) drain(l);
}

void SamplerCdrSink::finish() {
  const std::size_t lanes = nlanes_;
  if (!has_last_ && total_ > 0 && appended_ == total_) {
    for (std::size_t l = 0; l < lanes; ++l) {
      lanes_[l].last_sample = ring_[((total_ - 1) & mask_) * lanes + l];
    }
    has_last_ = true;
  }
  for (std::size_t l = 0; l < lanes; ++l) drain(l);
}

void SamplerCdrSink::drain(std::size_t l) {
  Lane& lane = lanes_[l];
  const std::size_t nslicers = nslicers_;
  const int phases = clocks_.phases();
  analog::DffSampler* slicers = slicers_.data() + l * nslicers;
  const bool dfe_on = !dfe_taps_.empty();
  // Fused availability test + Waveform::value_at over the logical stream:
  // one (t - t0)/dt per time point instead of one for the test and one for
  // the read, with every per-lane and per-ring load hoisted out of the
  // instant loop (nothing below changes them).  The arithmetic, and so
  // every interpolated value, is identical to the unfused pair.
  const double* column = ring_.data() + l;
  const std::size_t stride = nlanes_;
  const std::size_t mask = mask_;
  const double first = lane.first_sample;
  const double last = lane.last_sample;
  const bool has_first = has_first_;
  const bool has_last = has_last_;
  const std::uint64_t total = total_;
  const std::uint64_t appended = appended_;
  const util::Second t0 = t0_;
  const util::Second dt = dt_;
  const auto fetch = [&](util::Second t, double* v) {
    const double idx = (t - t0) / dt;
    if (idx <= 0.0) {
      *v = first;
      return has_first;
    }
    const auto lo = static_cast<std::uint64_t>(idx);
    if (lo + 1 >= total) {
      *v = last;
      return has_last;
    }
    if (lo + 1 >= appended) return false;
    const double frac = idx - static_cast<double>(lo);
    const double a = column[(lo & mask) * stride];
    const double b = column[((lo + 1) & mask) * stride];
    *v = a + frac * (b - a);
    return true;
  };
  while (!lane.done) {
    if (!lane.pending) {
      if (lane.phase == 0) {
        if (clocks_.instant(lane.ui, 0) >= end_) {
          lane.done = true;
          break;
        }
        if (dfe_on) {
          // Latch this UI's feedback correction and decision phase before
          // its first instant is generated; both stay fixed across the
          // whole UI even when instants straddle block boundaries.
          double corr = 0.0;
          for (std::size_t k = 0; k < dfe_taps_.size(); ++k) {
            corr += dfe_taps_[k] * lane.dfe_hist[k];
          }
          lane.dfe_corr = corr;
          lane.dfe_fb_phase = lane.cdr.decision_phase();
          lane.dfe_fb_decided = false;
        }
      }
      // Perturb exactly once per instant; the jitter RNG stream therefore
      // advances in the same order as the batch sampling loop even when an
      // instant has to wait for the next block.
      lane.pending = lane.jitter.perturb(clocks_.instant(lane.ui, lane.phase));
    }
    const util::Second t = *lane.pending;
    double v;
    double v_before;
    double v_after;
    if (!fetch(t, &v) || !fetch(t - ap_half_, &v_before) ||
        !fetch(t + ap_half_, &v_after)) {
      break;  // wait for more samples (or the end of the stream)
    }
    if (dfe_on) {
      // The per-UI correction shifts the whole summing node, so all three
      // aperture fetches move together (a zero correction is bit-exact:
      // v - 0.0 == v) and the metastability crossing product is preserved.
      v -= lane.dfe_corr;
      v_before -= lane.dfe_corr;
      v_after -= lane.dfe_corr;
      if (!lane.dfe_fb_decided && lane.phase >= lane.dfe_fb_phase) {
        std::size_t level = nslicers;  // thresholds cleared, top down
        while (level > 0 && !(v > thresholds_[level - 1])) --level;
        lane.dfe_fb_w = static_cast<double>(2 * static_cast<int>(level) -
                                            static_cast<int>(nslicers)) /
                        static_cast<double>(nslicers);
        lane.dfe_fb_decided = true;
      }
    }
    if (nslicers == 1) {
      lane.cdr.push(slicers[0].decide(v, v_before, v_after));
    } else {
      const bool msb = slicers[0].decide(v, v_before, v_after);
      const bool above_low = slicers[1].decide(v, v_before, v_after);
      const bool above_high = slicers[2].decide(v, v_before, v_after);
      lane.cdr.push2(msb, above_low && !above_high);
    }
    lane.pending.reset();
    if (++lane.phase == phases) {
      lane.phase = 0;
      ++lane.ui;
      if (dfe_on) {
        for (std::size_t k = dfe_taps_.size() - 1; k > 0; --k) {
          lane.dfe_hist[k] = lane.dfe_hist[k - 1];
        }
        lane.dfe_hist[0] = lane.dfe_fb_decided ? lane.dfe_fb_w : 0.0;
      }
    }
  }
}

std::vector<std::uint8_t> SamplerCdrSink::recovered_bits(
    std::size_t lane) const {
  const std::vector<std::uint8_t>& msb = lanes_[lane].cdr.recovered();
  if (nslicers_ == 1) return msb;
  const std::vector<std::uint8_t>& lsb = lanes_[lane].cdr.aux_recovered();
  std::vector<std::uint8_t> bits;
  bits.reserve(msb.size() * 2);
  for (std::size_t i = 0; i < msb.size(); ++i) {
    bits.push_back(msb[i]);
    bits.push_back(i < lsb.size() ? lsb[i] : 0);
  }
  return bits;
}

std::uint64_t SamplerCdrSink::metastable_count(std::size_t lane) const {
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < nslicers_; ++k) {
    count += slicers_[lane * nslicers_ + k].metastable_count();
  }
  return count;
}

}  // namespace serdes::pipe
