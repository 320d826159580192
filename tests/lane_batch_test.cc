// Lane-tiling bit-identity contract (tier1): the SoA batched path —
// shared TX/channel instruction stream, per-lane AWGN/CTLE/RFI/restore
// state vectors, lane-batched sampler/CDR sink — must produce RunReports
// that are BYTE-identical to running every lane as its own one-lane link
// (lane_tiling = false), for every built-in channel kind, both
// modulations, at any lane count (including ragged tails) and any thread
// count.  Identity is compared on to_json(report).dump(), so
// every field (BER statistics, lock diagnostics, eye metrics, captured
// waveform samples) participates in the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/link_builder.h"
#include "api/link_spec.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace serdes::api {
namespace {

/// Compact but complete scenario: two chunks (fresh per-chunk noise and
/// PRBS continuation cross lane-tile boundaries), FFE + CTLE + both
/// jitter terms + ppm offset, so every lane stage carries live state.
LinkSpec tile_spec(const ChannelSpec& channel) {
  LinkSpec spec = LinkBuilder()
                      .name("tile")
                      .channel(channel)
                      .payload_bits(512)
                      .chunk_bits(256)
                      .preamble_bits(128)
                      .cdr_window(16)
                      .tx_ffe_deemphasis(0.2)
                      .rx_ctle(util::decibels(3.0))
                      .sinusoidal_jitter(util::seconds(2e-12))
                      .ppm_offset(50.0)
                      .lane_batch(8)
                      .build_spec();
  return spec;
}

std::vector<ChannelSpec> builtin_channels() {
  return {
      ChannelSpec::flat(34.0),
      ChannelSpec::rc(2.5e9, 6.0),
      ChannelSpec::lossy_line(6.0, 18.0, 14.0),
      ChannelSpec::fir({0.6, 0.25, 0.1}),
      ChannelSpec::cascade({ChannelSpec::flat(20.0),
                            ChannelSpec::fir({0.7, 0.2})}),
  };
}

std::vector<LinkSpec> lane_specs(const ChannelSpec& channel, int lanes,
                                 bool capture = false) {
  std::vector<LinkSpec> specs;
  specs.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    LinkSpec spec = tile_spec(channel);
    spec.name = "lane" + std::to_string(i);
    spec.capture_waveforms = capture;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<std::string> render_batch(const Simulator& sim,
                                      const std::vector<LinkSpec>& specs,
                                      int threads) {
  std::vector<std::string> rendered;
  for (const RunReport& report : sim.run_batch(specs, threads)) {
    rendered.push_back(to_json(report).dump());
  }
  return rendered;
}

TEST(LaneBatch, BitIdenticalToScalarForEveryChannelKind) {
  Simulator::Options scalar_options;
  scalar_options.lane_tiling = false;
  const Simulator scalar(scalar_options);
  const Simulator tiled;  // lane_tiling on by default

  for (const ChannelSpec& channel : builtin_channels()) {
    for (const int lanes : {1, 3, 8, 17}) {
      const std::vector<LinkSpec> specs = lane_specs(channel, lanes);
      const std::vector<std::string> reference =
          render_batch(scalar, specs, 1);
      for (const int threads : {1, 8}) {
        const std::vector<std::string> batched =
            render_batch(tiled, specs, threads);
        ASSERT_EQ(batched.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(batched[i], reference[i])
              << "channel " << channel.kind << ", " << lanes << " lanes, "
              << threads << " threads, lane " << i;
        }
      }
    }
  }
}

TEST(LaneBatch, Pam4WithFixedDfeBitIdenticalToOneLaneLinks) {
  // PAM4 tiles: three slicers per lane at the thresholds calibrated on
  // the shared noise-free head, live DFE feedback, the eye folded per
  // symbol — with captured waveforms, so every lane's report pins them.
  LinkSpec spec = LinkBuilder()
                      .name("pam4")
                      .modulation("pam4")
                      .channel(ChannelSpec::fir({0.7, 0.25}))
                      .noise_rms(0.01)
                      .rx_ctle(util::decibels(2.0))
                      .dfe({0.22, 0.01})
                      .sinusoidal_jitter(util::seconds(2e-12))
                      .payload_bits(2048)
                      .chunk_bits(1024)
                      .lane_batch(8)
                      .capture_waveforms()
                      .build_spec();
  ASSERT_TRUE(Simulator::tile_eligible(spec));
  Simulator::Options untiled_options;
  untiled_options.lane_tiling = false;
  const Simulator untiled(untiled_options);
  const Simulator tiled;
  for (const int lanes : {1, 3, 8}) {
    std::vector<LinkSpec> specs;
    for (int i = 0; i < lanes; ++i) {
      spec.name = "pam4_lane" + std::to_string(i);
      specs.push_back(spec);
    }
    const std::vector<RunReport> reference = untiled.run_batch(specs, 1);
    ASSERT_TRUE(reference[0].aligned) << lanes << " lanes";
    ASSERT_GT(reference[0].bits, 0u);
    const std::vector<std::string> batched = render_batch(tiled, specs, 2);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(batched[i], to_json(reference[i]).dump())
          << lanes << " lanes, lane " << i;
    }
  }
}

TEST(LaneBatch, CapturedWaveformsMatchScalarByteForByte) {
  Simulator::Options scalar_options;
  scalar_options.lane_tiling = false;
  const std::vector<LinkSpec> specs =
      lane_specs(ChannelSpec::rc(2.5e9, 6.0), 5, /*capture=*/true);
  const std::vector<std::string> reference =
      render_batch(Simulator(scalar_options), specs, 1);
  const std::vector<std::string> batched =
      render_batch(Simulator(), specs, 2);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "lane " << i;
  }
}

TEST(LaneBatch, MixedEligibilityBatchStaysBitIdentical) {
  // Tiled lanes and a scalar (lane_batch = 1) lane interleaved in one
  // batch: grouping must keep report order and per-lane seed derivation
  // exactly as the scalar path computes them.
  std::vector<LinkSpec> specs = lane_specs(ChannelSpec::flat(34.0), 4);
  LinkSpec batchless = tile_spec(ChannelSpec::flat(34.0));
  batchless.name = "scalar";
  batchless.lane_batch = 1;
  specs.insert(specs.begin() + 1, batchless);

  Simulator::Options scalar_options;
  scalar_options.lane_tiling = false;
  const std::vector<std::string> reference =
      render_batch(Simulator(scalar_options), specs, 1);
  const std::vector<std::string> batched = render_batch(Simulator(), specs, 8);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "slot " << i;
  }
}

TEST(LaneBatch, RunLaneTileMatchesRunPerLane) {
  // The tile primitive itself (seeds used exactly as given) against
  // Simulator::run on each lane spec.
  std::vector<LinkSpec> specs = lane_specs(ChannelSpec::fir({0.6, 0.3}), 6);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = 1000 + 17 * i;  // explicit, already-derived seeds
  }
  const Simulator sim;
  const std::vector<RunReport> tiled = sim.run_lane_tile(specs);
  ASSERT_EQ(tiled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(to_json(tiled[i]).dump(), to_json(sim.run(specs[i])).dump())
        << "lane " << i;
  }
}

TEST(LaneBatch, SweepWithLaneBatchStaysByteIdentical) {
  // A sweep whose base opts into lane_batch: scenarios that share physics
  // (here the seed axis varies only the per-lane degree of freedom) tile
  // together, scenarios on different noise axes land in separate tiles,
  // and the serialized report must stay byte-identical to the untiled
  // runner at any thread count.
  sweep::SweepSpec sweep;
  sweep.name = "lane_grid";
  sweep.base = tile_spec(ChannelSpec::flat(34.0));
  sweep.axes.push_back({"noise_rms_v",
                        {util::Json(0.001), util::Json(0.002)}});
  sweep.axes.push_back({"seed",
                        {util::Json(1.0), util::Json(2.0), util::Json(3.0)}});

  sweep::SweepRunner::Options scalar_options;
  scalar_options.n_threads = 1;
  scalar_options.simulator.lane_tiling = false;
  const std::string reference =
      sweep::to_json(sweep::SweepRunner(scalar_options).run(sweep)).dump(2);
  for (const int threads : {1, 4}) {
    sweep::SweepRunner::Options options;
    options.n_threads = threads;
    const std::string tiled =
        sweep::to_json(sweep::SweepRunner(options).run(sweep)).dump(2);
    EXPECT_EQ(tiled, reference) << threads << " threads";
  }
}

TEST(LaneBatch, LaneBatchFieldRoundTripsThroughJson) {
  LinkSpec spec = tile_spec(ChannelSpec::flat(34.0));
  spec.lane_batch = 12;
  const util::Json j = to_json(spec);
  EXPECT_EQ(j.find("lane_batch")->as_int(), 12);
  const LinkSpec back = link_spec_from_json(j);
  EXPECT_EQ(back.lane_batch, 12);
}

TEST(LaneBatch, ValidationRejectsOutOfRangeLaneBatch) {
  LinkSpec spec = LinkSpec::paper_default();
  spec.lane_batch = 0;
  EXPECT_THROW(spec.validate_or_throw(), std::invalid_argument);
  spec.lane_batch = 65;
  EXPECT_THROW(spec.validate_or_throw(), std::invalid_argument);
  spec.lane_batch = 64;
  EXPECT_NO_THROW(spec.validate_or_throw());
}

TEST(LaneBatch, TileEligibilityRequiresMonteCarlo) {
  LinkSpec spec = tile_spec(ChannelSpec::flat(34.0));
  EXPECT_TRUE(Simulator::tile_eligible(spec));
  spec.analysis = "stat";
  EXPECT_FALSE(Simulator::tile_eligible(spec));
  spec.analysis = "mc";
  spec.lane_batch = 1;
  EXPECT_FALSE(Simulator::tile_eligible(spec));
  // PAM4 is only a slicer-threshold count to the tile: it tiles.
  spec.lane_batch = 8;
  spec.modulation = "pam4";
  spec.tx_ffe_deemphasis = 0.0;
  EXPECT_TRUE(Simulator::tile_eligible(spec));
  // Trained lanes each train their own EQ: no shared physics to tile.
  spec.eq = "trained";
  EXPECT_FALSE(Simulator::tile_eligible(spec));
}

TEST(LaneBatch, TileKeyNeutralizesNameAndSeedOnly) {
  const LinkSpec a = tile_spec(ChannelSpec::flat(34.0));
  LinkSpec b = a;
  b.name = "other";
  b.seed = 999;
  EXPECT_EQ(Simulator::tile_key(a), Simulator::tile_key(b));
  b.noise_rms_v *= 2.0;
  EXPECT_NE(Simulator::tile_key(a), Simulator::tile_key(b));
}

}  // namespace
}  // namespace serdes::api
