// Crosstalk stage for the multi-lane bus datapath.
//
//   XtalkInjectStage — adds gain-scaled, UI-delayed copies of aggressor TX
//                      streams (optionally filtered through the victim's
//                      channel: FEXT) into the victim's post-channel
//                      stream, block by block.
//
// It follows the streaming contract of pipe/stages.h: identical arithmetic
// at any block size, state carried across blocks.  PAM4 needs no stage of
// its own: its slicers are pipe::SamplerCdrSink with three thresholds.
#pragma once

#include <memory>
#include <vector>

#include "channel/channel.h"
#include "pipe/stage.h"
#include "pipe/stages.h"

namespace serdes::pipe {

/// One aggressor contribution into a victim stream.  The aggressor's
/// launch levels (already delayed: the caller prepends `delay_ui` idle
/// levels) are pulse-shaped by a private LevelPulseSource and — for FEXT —
/// run through a private stream of the victim's channel model, then scaled
/// by the coupling gain and added to every passing block.
class XtalkInjectStage final : public Stage {
 public:
  struct Path {
    /// Aggressor launch levels with the delay prepended; must span at
    /// least as many UIs as the victim stream.
    std::vector<double> levels;
    double gain = 0.0;
    /// FEXT: filter the aggressor stream through this (victim-channel)
    /// stream before injection.  nullptr = NEXT (direct injection).
    std::unique_ptr<channel::Channel::Stream> channel_stream;
  };

  /// Geometry must match the victim's TX source so aggressor samples line
  /// up positionally with victim samples.
  XtalkInjectStage(std::vector<Path> paths, util::Second unit_interval,
                   int samples_per_ui, util::Second rise_time,
                   util::Second stream_t0);

  void process(const BlockView& in, Block& out) override;
  void reset() override;
  [[nodiscard]] std::string_view name() const override { return "xtalk"; }

 private:
  struct Lane {
    LevelPulseSource source;
    double gain;
    std::unique_ptr<channel::Channel::Stream> channel_stream;
  };
  std::vector<Lane> lanes_;
  Block scratch_;
};

}  // namespace serdes::pipe
