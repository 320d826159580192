#include "analog/sampler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace serdes::analog {
namespace {

constexpr util::Second kDt = util::Second{31.25e-12};

TEST(RestoringInverter, RestoresRails) {
  const RestoringInverter inv(8.0, 12.0, util::volts(1.8), kDt);
  // Small swing around the threshold...
  const double vm = inv.threshold();
  auto in = Waveform::nrz({0, 1, 0, 1}, util::nanoseconds(2.0), 64, vm - 0.2,
                          vm + 0.2, util::picoseconds(100.0));
  const auto out = inv.process(in);
  // ...comes out (nearly) rail to rail and inverted.
  EXPECT_GT(out.peak_to_peak(), 1.4);
  EXPECT_LT(out.value_at(util::nanoseconds(3.0)), vm);   // input high
  EXPECT_GT(out.value_at(util::nanoseconds(5.0)), vm);   // input low
}

TEST(RestoringInverter, ThresholdIsSwitchingPoint) {
  const RestoringInverter inv(8.0, 12.0, util::volts(1.8), kDt);
  EXPECT_NEAR(inv.threshold(), inv.cell().switching_threshold(), 1e-9);
}

TEST(RestoringInverter, LutMatchesVtc) {
  const RestoringInverter inv(8.0, 12.0, util::volts(1.8), kDt);
  // A DC (constant) waveform must map through the VTC (pole passes DC).
  for (double vin : {0.2, 0.7, 0.9, 1.3, 1.7}) {
    auto w = Waveform::constant(util::seconds(0.0), kDt, 400, vin);
    const auto out = inv.process(w);
    EXPECT_NEAR(out.samples().back(), inv.cell().vtc(vin), 0.02)
        << "vin=" << vin;
  }
}

TEST(RestoringInverter, RestoreBlockMatchesRestoreLevelAtTheEdges) {
  const RestoringInverter inv(8.0, 12.0, util::volts(1.8), kDt);
  const double vdd = 1.8;
  const double cell = vdd / 512.0;  // the LUT has 512 cells over [0, vdd]
  // Zero of both signs, the rails, beyond both rails, and the top LUT
  // cell (where the index is pinned so lo + 1 stays in range).
  const std::vector<double> in = {-0.0,
                                  0.0,
                                  vdd,
                                  -0.4,
                                  -1e300,
                                  vdd + 0.4,
                                  1e300,
                                  vdd - 0.5 * cell,
                                  vdd - cell,
                                  std::nextafter(vdd, 0.0),
                                  0.5 * cell,
                                  inv.threshold()};
  std::vector<double> out(in.size());
  inv.restore_block(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(inv.restore_level(in[i])))
        << "in=" << in[i];
  }
  // Out-of-rail inputs clamp onto the rail values.
  EXPECT_EQ(out[3], out[1]);
  EXPECT_EQ(out[4], out[1]);
  EXPECT_EQ(out[5], out[2]);
  EXPECT_EQ(out[6], out[2]);
  EXPECT_NEAR(out[1], inv.cell().vtc(0.0), 1e-12);
  EXPECT_NEAR(out[2], inv.cell().vtc(vdd), 1e-12);

  // In place over the same span gives the same values.
  std::vector<double> inplace = in;
  inv.restore_block(inplace.data(), inplace.data(), inplace.size());
  EXPECT_EQ(inplace, out);
}

TEST(DffSampler, SlicesCleanLevels) {
  DffSampler::Config cfg;
  cfg.threshold = 0.9;
  cfg.input_noise_rms = 0.001;
  DffSampler sampler(cfg);
  auto w = Waveform::nrz({1, 0, 1, 0}, util::nanoseconds(1.0), 32, 0.0, 1.8,
                         util::picoseconds(50.0));
  EXPECT_TRUE(sampler.sample(w, util::nanoseconds(0.5)));
  EXPECT_FALSE(sampler.sample(w, util::nanoseconds(1.5)));
  EXPECT_TRUE(sampler.sample(w, util::nanoseconds(2.5)));
  EXPECT_EQ(sampler.metastable_count(), 0u);
}

TEST(DffSampler, NoiseFlipsMarginalSamples) {
  DffSampler::Config cfg;
  cfg.threshold = 0.9;
  cfg.input_noise_rms = 0.05;
  DffSampler sampler(cfg);
  // Input sits 10 mV above threshold: with 50 mV noise, many samples flip.
  auto w = Waveform::constant(util::seconds(0.0), kDt, 4000, 0.91);
  int ones = 0;
  for (int i = 0; i < 4000; ++i) {
    if (sampler.sample(w, kDt * static_cast<double>(i))) ++ones;
  }
  EXPECT_GT(ones, 1800);   // biased high...
  EXPECT_LT(ones, 3600);   // ...but far from deterministic
}

TEST(DffSampler, MetastabilityOnThresholdCrossings) {
  DffSampler::Config cfg;
  cfg.threshold = 0.9;
  cfg.aperture = util::picoseconds(100.0);
  cfg.input_noise_rms = 0.02;
  DffSampler sampler(cfg);
  // Sample right on an edge: v crosses the threshold inside the aperture.
  auto w = Waveform::nrz({0, 1}, util::nanoseconds(1.0), 64, 0.0, 1.8,
                         util::picoseconds(300.0));
  for (int i = 0; i < 50; ++i) {
    sampler.sample(w, util::nanoseconds(1.0));  // the transition instant
  }
  EXPECT_GT(sampler.metastable_count(), 0u);
}

TEST(DffSampler, DeterministicPerSeed) {
  DffSampler::Config cfg;
  cfg.seed = 99;
  cfg.input_noise_rms = 0.05;
  DffSampler a(cfg);
  DffSampler b(cfg);
  auto w = Waveform::constant(util::seconds(0.0), kDt, 1000, 0.9);
  for (int i = 0; i < 1000; ++i) {
    const auto t = kDt * static_cast<double>(i);
    EXPECT_EQ(a.sample(w, t), b.sample(w, t));
  }
}

}  // namespace
}  // namespace serdes::analog
