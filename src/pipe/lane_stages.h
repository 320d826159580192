// The per-lane stages of the streaming datapath, on lane-major SoA tiles
// (pipe/lane_block.h).  They are the only receiver-front-end stages: a
// single link is the one-lane tile, a lane batch the L-lane tile.
//
// The sample loop is the outer loop and the per-lane arithmetic runs in an
// inner lane loop with per-lane state held in arrays — one instruction
// stream, L lanes.  No cross-lane arithmetic ever mixes values and each
// lane draws from its own RNG stream in sample order, so lane l of a tile
// is bit-identical to the one-lane tile run over lane l alone.
//
//   LaneAwgnStage      — fans a shared (lane-invariant) channel block out
//                        into a tile, adding per-lane AWGN streams
//   LaneCtleStage      — CTLE peaking with per-lane pole state
//   LaneRfiStage       — RFI front end with per-lane DC means and poles
//   LaneRestoreStage   — restoring inverter VTC + per-lane output pole
//   LaneWaveformTap    — per-lane diagnostic-window capture
//
// The tile ends in pipe::SamplerCdrSink (pipe/stages.h), which keeps
// per-lane jitter/slicer/CDR state over one shared interleaved rolling
// window; core::run_link_tile chains head, tile stages and sink.
//
// The gaussian draw (ziggurat with a variable-draw edge path) and the
// sampler decision (data-dependent metastability redraws) stay serial per
// lane by design: batching them across lanes would change each lane's
// draw order and break bit-identity.  The filter recurrences and MACs —
// where the cycles actually go — vectorize across the lane axis.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/filters.h"
#include "analog/rfi.h"
#include "analog/sampler.h"
#include "analog/waveform.h"
#include "pipe/block.h"
#include "pipe/lane_block.h"
#include "util/random.h"
#include "util/units.h"

namespace serdes::pipe {

/// Fan-out stage: replicates a shared scalar block (the lane-invariant
/// TX + channel output) across L lanes, adding each lane's own AWGN
/// stream — per lane, blockwise Waveform::add_noise with a carried RNG
/// that advances one gaussian per sample.
class LaneAwgnStage {
 public:
  LaneAwgnStage(double sigma, const std::vector<std::uint64_t>& seeds);

  void process(const BlockView& in, LaneBlock& out);

 private:
  double sigma_;
  std::vector<util::Rng> rngs_;
};

/// CTLE peaking across a tile: out = x + k*(x - LPF(x)) per lane, the
/// pole state carried per lane (analog::OnePoleLowPass::process_lanes).
class LaneCtleStage {
 public:
  LaneCtleStage(util::Decibel boost, util::Hertz pole, util::Second dt,
                std::size_t lanes);

  void process(const LaneView& in, LaneBlock& out);

 private:
  double k_;
  analog::OnePoleLowPass lpf_;  // coefficients; state lives in x1_/y1_
  std::vector<double> x1_;
  std::vector<double> y1_;
  std::vector<double> scratch_;  // low-passed tile (keeps in/out aliasable)
};

/// RFI front end across a tile: per-lane DC removal (each lane's stream
/// mean, supplied via set_mean once measured), per-lane output pole, then
/// the shared saturating VTC — blockwise analog::RfiStage::process per
/// lane, given that lane's stream DC mean.
class LaneRfiStage {
 public:
  LaneRfiStage(const analog::RfiStage& rfi, util::Second dt,
               std::size_t lanes);

  /// Lane `lane`'s full-stream DC mean; must be set before the first tile.
  void set_mean(std::size_t lane, double mean) { deltas_[lane] = -mean; }

  void process(const LaneView& in, LaneBlock& out);

 private:
  const analog::RfiStage* rfi_;
  analog::OnePoleLowPass lpf_;
  std::vector<double> deltas_;
  std::vector<double> x1_;
  std::vector<double> y1_;
};

/// Rail-restoring inverter across a tile: shared VTC lookup per value,
/// then the per-lane output pole.
class LaneRestoreStage {
 public:
  LaneRestoreStage(const analog::RestoringInverter& inv, util::Second dt,
                   std::size_t lanes);

  void process(const LaneView& in, LaneBlock& out);

 private:
  const analog::RestoringInverter* inv_;
  analog::OnePoleLowPass pole_;
  std::vector<double> x1_;
  std::vector<double> y1_;
};

/// Per-lane diagnostic-window capture: a passive recorder retaining up to
/// `max_samples` of each lane's stream flowing past.  The link only
/// records while diagnostics capture is on (the first chunk of a BER
/// run), so bulk streaming never accumulates waveform memory.
class LaneWaveformTap {
 public:
  LaneWaveformTap(std::size_t lanes, std::size_t max_samples);

  void record(const LaneView& in);

  /// Moves lane `lane`'s captured window out (stream t0 / dt stamped).
  [[nodiscard]] analog::Waveform take(std::size_t lane);

 private:
  std::size_t max_samples_;
  std::vector<std::vector<double>> captured_;
  util::Second t0_{0.0};
  util::Second dt_{1e-12};
  bool stamped_ = false;
};

}  // namespace serdes::pipe
