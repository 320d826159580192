#include "pipe/lane_stages.h"

#include <algorithm>
#include <stdexcept>
#include <utility>


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
    // sample order, with its state in registers for the whole block; the
    // lane's column of the tile is a stride-`lanes` walk.
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
  // keeps every lane's operation order that of a one-lane tile.
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
  // RfiStage::saturate as a flat element-wise pass with the loop-invariant
  // loads hoisted; the formula itself has one home (saturate_value).
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
    const std::size_t at = lane.size();
    lane.resize(at + take);
    for (std::size_t i = 0; i < take; ++i) lane[at + i] = in.at(i, l);
  }
}

analog::Waveform LaneWaveformTap::take(std::size_t lane) {
  return analog::Waveform{t0_, dt_, std::move(captured_[lane])};
}

}  // namespace serdes::pipe
