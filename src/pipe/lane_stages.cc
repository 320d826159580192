#include "pipe/lane_stages.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dsp/fft.h"

namespace serdes::pipe {

// ---- LaneAwgnStage ----------------------------------------------------------

LaneAwgnStage::LaneAwgnStage(double sigma,
                             const std::vector<std::uint64_t>& seeds)
    : sigma_(sigma) {
  if (seeds.empty()) {
    throw std::invalid_argument("LaneAwgnStage: need at least one lane seed");
  }
  rngs_.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) rngs_.emplace_back(seed);
}

void LaneAwgnStage::process(const BlockView& in, LaneBlock& out) {
  const std::size_t lanes = rngs_.size();
  out.shape(in.size, lanes, in.start_index, in.stream_t0, in.dt, in.last);
  double* samples = out.data();
  const double sigma = sigma_;
  if (sigma > 0.0) {
    // Lane by lane: each lane's stream draws one gaussian per sample in
    // sample order, exactly like the scalar AwgnStage, with its state in
    // registers for the whole block; the lane's column of the tile is a
    // stride-`lanes` walk.
    for (std::size_t l = 0; l < lanes; ++l) {
      rngs_[l].add_gaussian(in.data, samples + l, in.size, sigma, 1, lanes);
    }
  } else {
    for (std::size_t i = 0; i < in.size; ++i) {
      const double base = in.data[i];
      double* dst = samples + i * lanes;
      for (std::size_t l = 0; l < lanes; ++l) dst[l] = base;
    }
  }
}

// ---- LaneCtleStage ----------------------------------------------------------

LaneCtleStage::LaneCtleStage(util::Decibel boost, util::Hertz pole,
                             util::Second dt, std::size_t lanes)
    : k_(util::db_to_amplitude(boost) - 1.0),
      lpf_(pole, dt),
      x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneCtleStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  const std::size_t values = in.size * in.lanes;
  scratch_.resize(values);
  lpf_.process_lanes(in.data, scratch_.data(), in.size, in.lanes, x1_.data(),
                     y1_.data());
  // The peaking combine is element-wise, so one flat pass over the tile
  // keeps every lane's operation order identical to the scalar stage.
  const double k = k_;
  const double* low = scratch_.data();
  for (std::size_t i = 0; i < values; ++i) {
    const double x = in.data[i];
    samples[i] = x + k * (x - low[i]);
  }
}

// ---- LaneRfiStage -----------------------------------------------------------

LaneRfiStage::LaneRfiStage(const analog::RfiStage& rfi, util::Second dt,
                           std::size_t lanes)
    : rfi_(&rfi),
      lpf_(rfi.bandwidth(), dt),
      deltas_(lanes, 0.0),
      x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneRfiStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  const double* deltas = deltas_.data();
  for (std::size_t i = 0; i < in.size; ++i) {
    const double* src = in.data + i * in.lanes;
    double* dst = samples + i * in.lanes;
    for (std::size_t l = 0; l < in.lanes; ++l) dst[l] = src[l] + deltas[l];
  }
  lpf_.process_lanes(samples, samples, in.size, in.lanes, x1_.data(),
                     y1_.data());
  // Element-wise saturating VTC: flat pass, loads hoisted like the scalar
  // stage.
  const double bias = rfi_->bias();
  const double gain = rfi_->gain();
  const double half = rfi_->vdd() / 2.0;
  const std::size_t values = in.size * in.lanes;
  for (std::size_t i = 0; i < values; ++i) {
    samples[i] = analog::RfiStage::saturate_value(samples[i], bias, gain,
                                                  half);
  }
}

// ---- LaneRestoreStage -------------------------------------------------------

LaneRestoreStage::LaneRestoreStage(const analog::RestoringInverter& inv,
                                   util::Second dt, std::size_t lanes)
    : inv_(&inv), pole_(inv.bandwidth(), dt), x1_(lanes, 0.0),
      y1_(lanes, 0.0) {}

void LaneRestoreStage::process(const LaneView& in, LaneBlock& out) {
  out.match(in);
  double* samples = out.data();
  inv_->restore_block(in.data, samples, in.size * in.lanes);
  pole_.process_lanes(samples, samples, in.size, in.lanes, x1_.data(),
                      y1_.data());
}

// ---- LaneWaveformTap --------------------------------------------------------

LaneWaveformTap::LaneWaveformTap(std::size_t lanes, std::size_t max_samples)
    : max_samples_(max_samples), captured_(lanes) {}

void LaneWaveformTap::record(const LaneView& in) {
  if (!stamped_ && in.size > 0) {
    t0_ = in.stream_t0;
    dt_ = in.dt;
    stamped_ = true;
  }
  for (std::size_t l = 0; l < captured_.size(); ++l) {
    std::vector<double>& lane = captured_[l];
    if (lane.size() >= max_samples_) continue;
    const std::size_t take = std::min(max_samples_ - lane.size(), in.size);
    for (std::size_t i = 0; i < take; ++i) lane.push_back(in.at(i, l));
  }
}

analog::Waveform LaneWaveformTap::take(std::size_t lane) {
  return analog::Waveform{t0_, dt_, std::move(captured_[lane])};
}

// ---- LaneSamplerCdrSink -----------------------------------------------------

LaneSamplerCdrSink::LaneSamplerCdrSink(const Config& config)
    : clocks_(config.bit_rate, config.oversampling, config.phase_offset,
              config.ppm_offset),
      nlanes_(config.jitter_seeds.size()),
      total_(config.total_samples),
      t0_(config.stream_t0),
      dt_(config.dt),
      end_(config.stream_t0 +
           config.dt * static_cast<double>(config.total_samples)),
      ap_half_(config.sampler.aperture * 0.5),
      dfe_on_(!config.dfe_taps.empty()),
      dfe_taps_(config.dfe_taps),
      dfe_thr_(config.sampler.threshold) {
  if (nlanes_ == 0 || config.sampler_seeds.size() != nlanes_) {
    throw std::invalid_argument(
        "LaneSamplerCdrSink: jitter/sampler seed vectors must be the same "
        "non-zero length");
  }
  jitters_.reserve(nlanes_);
  samplers_.reserve(nlanes_);
  cdrs_.reserve(nlanes_);
  for (std::size_t l = 0; l < nlanes_; ++l) {
    channel::JitterModel::Config jc = config.jitter;
    jc.seed = config.jitter_seeds[l];
    jitters_.emplace_back(jc);
    analog::DffSampler::Config sc = config.sampler;
    sc.seed = config.sampler_seeds[l];
    samplers_.emplace_back(sc);
    cdrs_.emplace_back(config.cdr);
  }
  cursors_.resize(nlanes_);
  if (dfe_on_) {
    for (LaneCursor& cursor : cursors_) {
      cursor.dfe_hist.assign(dfe_taps_.size(), 0.0);
    }
  }
  // Same window sizing as the scalar sink (see SamplerCdrSink): one block
  // plus the worst-case backward reach of a jittered aperture edge, as a
  // power-of-two entry count so the index wrap stays a mask.
  const double dt_s = config.dt.value();
  const double back_span_s = config.sampler.aperture.value() +
                             24.0 * config.jitter.random_rms.value() +
                             2.0 * config.jitter.sinusoidal_amplitude.value() +
                             4.0 * util::period(config.bit_rate).value();
  back_samples_ = static_cast<std::size_t>(back_span_s / dt_s) + 64;
  const std::size_t entries = dsp::next_pow2(
      std::max<std::size_t>(config.block_samples, 1) + back_samples_);
  ring_.assign(entries * nlanes_, 0.0);
  mask_ = entries - 1;
  if (total_ == 0) {
    for (LaneCursor& cursor : cursors_) cursor.done = true;
  }
}

void LaneSamplerCdrSink::consume(const LaneView& in) {
  if (in.lanes != nlanes_) {
    throw std::invalid_argument("LaneSamplerCdrSink: lane count mismatch");
  }
  const std::size_t lanes = nlanes_;
  const std::size_t entries = ring_.size() / lanes;
  if (in.size + back_samples_ > entries) {
    // A tile larger than the sizing hint arrived: grow the window before
    // writing, re-placing the live span under the new modulus (scalar
    // sink's grow path, per lane).
    const std::size_t new_entries = dsp::next_pow2(in.size + back_samples_);
    std::vector<double> bigger(new_entries * lanes, 0.0);
    const std::size_t new_mask = new_entries - 1;
    const std::uint64_t live = std::min<std::uint64_t>(appended_, entries);
    for (std::uint64_t k = appended_ - live; k < appended_; ++k) {
      const double* src = ring_.data() + (k & mask_) * lanes;
      double* dst = bigger.data() + (k & new_mask) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) dst[l] = src[l];
    }
    ring_ = std::move(bigger);
    mask_ = new_mask;
  }
  double* ring = ring_.data();
  const std::size_t mask = mask_;
  const std::uint64_t start = in.start_index;
  for (std::size_t i = 0; i < in.size; ++i) {
    const double* src = in.data + i * lanes;
    double* dst = ring + ((start + i) & mask) * lanes;
    for (std::size_t l = 0; l < lanes; ++l) dst[l] = src[l];
  }
  if (in.size > 0) {
    if (in.start_index == 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        cursors_[l].first_sample = in.at(0, l);
        cursors_[l].has_first = true;
      }
    }
    appended_ = in.start_index + in.size;
    if (appended_ == total_) {
      for (std::size_t l = 0; l < lanes; ++l) {
        cursors_[l].last_sample = in.at(in.size - 1, l);
        cursors_[l].got_last = true;
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) drain_lane(l);
}

void LaneSamplerCdrSink::finish() {
  if (total_ > 0 && appended_ == total_) {
    for (std::size_t l = 0; l < nlanes_; ++l) {
      LaneCursor& cursor = cursors_[l];
      if (!cursor.got_last) {
        cursor.last_sample = ring_[((total_ - 1) & mask_) * nlanes_ + l];
        cursor.got_last = true;
      }
    }
  }
  for (std::size_t l = 0; l < nlanes_; ++l) drain_lane(l);
}

bool LaneSamplerCdrSink::fetch(std::size_t lane, const LaneCursor& cursor,
                               util::Second t, double* v) const {
  const double idx = (t - t0_) / dt_;
  if (idx <= 0.0) {
    if (!cursor.has_first) return false;
    *v = cursor.first_sample;
    return true;
  }
  const auto lo = static_cast<std::uint64_t>(idx);
  if (lo + 1 >= total_) {
    if (!cursor.got_last) return false;
    *v = cursor.last_sample;
    return true;
  }
  if (lo + 1 >= appended_) return false;
  const double frac = idx - static_cast<double>(lo);
  const double a = ring_[(lo & mask_) * nlanes_ + lane];
  const double b = ring_[((lo + 1) & mask_) * nlanes_ + lane];
  *v = a + frac * (b - a);
  return true;
}

void LaneSamplerCdrSink::drain_lane(std::size_t lane) {
  LaneCursor& cursor = cursors_[lane];
  channel::JitterModel& jitter = jitters_[lane];
  analog::DffSampler& sampler = samplers_[lane];
  digital::OversamplingCdr& cdr = cdrs_[lane];
  while (!cursor.done) {
    if (!cursor.pending) {
      if (cursor.phase == 0) {
        const util::Second ui_start = clocks_.instant(cursor.ui, 0);
        if (ui_start >= end_) {
          cursor.done = true;
          break;
        }
        if (dfe_on_) {
          double corr = 0.0;
          for (std::size_t k = 0; k < dfe_taps_.size(); ++k) {
            corr += dfe_taps_[k] * cursor.dfe_hist[k];
          }
          cursor.dfe_corr = corr;
          cursor.dfe_fb_phase = cdr.decision_phase();
          cursor.dfe_fb_decided = false;
        }
      }
      // Perturb exactly once per instant (scalar drain): the lane's jitter
      // RNG stream advances in the batch sampling order even when an
      // instant has to wait for the next tile.
      cursor.pending = jitter.perturb(clocks_.instant(cursor.ui, cursor.phase));
    }
    const util::Second t = *cursor.pending;
    double v;
    double v_before;
    double v_after;
    if (!fetch(lane, cursor, t, &v) ||
        !fetch(lane, cursor, t - ap_half_, &v_before) ||
        !fetch(lane, cursor, t + ap_half_, &v_after)) {
      break;  // wait for more samples (or the end of the stream)
    }
    if (dfe_on_) {
      v -= cursor.dfe_corr;
      v_before -= cursor.dfe_corr;
      v_after -= cursor.dfe_corr;
      if (!cursor.dfe_fb_decided && cursor.phase >= cursor.dfe_fb_phase) {
        cursor.dfe_fb_w = v > dfe_thr_ ? 1.0 : -1.0;  // pure comparator
        cursor.dfe_fb_decided = true;
      }
    }
    cdr.push(sampler.decide(v, v_before, v_after));
    cursor.pending.reset();
    if (++cursor.phase == clocks_.phases()) {
      cursor.phase = 0;
      ++cursor.ui;
      if (dfe_on_) {
        for (std::size_t k = dfe_taps_.size() - 1; k > 0; --k) {
          cursor.dfe_hist[k] = cursor.dfe_hist[k - 1];
        }
        cursor.dfe_hist[0] = cursor.dfe_fb_decided ? cursor.dfe_fb_w : 0.0;
      }
    }
  }
}

}  // namespace serdes::pipe
