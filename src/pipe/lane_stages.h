// Lane-batched (SoA) streaming stages for the multi-lane datapath.
//
// Each stage here is the L-lane counterpart of a scalar stage in
// pipe/stages.h, operating on lane-major tiles (pipe/lane_block.h): the
// sample loop is the outer loop exactly as in the scalar stage, and the
// per-lane arithmetic runs in an inner lane loop with per-lane state held
// in arrays — one instruction stream, L lanes.  No cross-lane arithmetic
// ever mixes values and each lane draws from its own RNG stream in the
// scalar order, so lane l of a tile is bit-identical to the scalar
// pipeline run over lane l alone.
//
//   LaneAwgnStage      — fans a shared (lane-invariant) channel block out
//                        into a tile, adding per-lane AWGN streams
//   LaneCtleStage      — CTLE peaking with per-lane pole state
//   LaneRfiStage       — RFI front end with per-lane DC means and poles
//   LaneRestoreStage   — restoring inverter VTC + per-lane output pole
//   LaneWaveformTap    — per-lane diagnostic-window capture
//
// The tile ends in the same pipe::SamplerCdrSink as the scalar datapath
// (pipe/stages.h), which keeps per-lane jitter/slicer/CDR state over one
// shared interleaved rolling window.
//
// The gaussian draw (ziggurat with a variable-draw edge path) and the
// sampler decision (data-dependent metastability redraws) stay scalar per
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
/// that advances one gaussian per sample exactly like AwgnStage.
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
/// the shared saturating VTC — blockwise RfiFrontEndStage per lane.
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

/// Per-lane diagnostic-window capture: retains up to `max_samples` of each
/// lane's stream flowing past (the per-lane analogue of WaveformTapStage,
/// as a passive recorder — call record() before the sink consumes the
/// tile).
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
