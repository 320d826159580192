#include "analog/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace serdes::analog {
namespace {

constexpr util::Second kDt = util::Second{25e-12};  // 40 GS/s

TEST(OnePoleLowPass, PassesDc) {
  OnePoleLowPass lpf(util::gigahertz(1.0), kDt);
  double y = 0.0;
  for (int i = 0; i < 1000; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(OnePoleLowPass, Minus3dbAtCutoff) {
  OnePoleLowPass lpf(util::gigahertz(1.0), kDt);
  const double g = measure_gain(lpf, util::gigahertz(1.0), kDt);
  EXPECT_NEAR(g, 1.0 / std::sqrt(2.0), 0.02);
}

TEST(OnePoleLowPass, RollsOffAtHighFrequency) {
  OnePoleLowPass lpf(util::megahertz(100.0), kDt);
  const double g_pass = measure_gain(lpf, util::megahertz(10.0), kDt);
  const double g_stop = measure_gain(lpf, util::gigahertz(1.0), kDt);
  EXPECT_GT(g_pass, 0.95);
  EXPECT_LT(g_stop, 0.15);  // one decade above: ~ -20 dB
  EXPECT_NEAR(g_stop, 0.0995, 0.02);
}

TEST(OnePoleLowPass, ResetClearsState) {
  OnePoleLowPass lpf(util::gigahertz(1.0), kDt);
  for (int i = 0; i < 100; ++i) lpf.step(1.0);
  lpf.reset();
  EXPECT_NEAR(lpf.step(0.0), 0.0, 1e-12);
}

TEST(OnePoleLowPass, CutoffClampedBelowNyquist) {
  // Requesting a pole beyond Nyquist must not throw; it becomes a
  // pass-through-ish filter.
  OnePoleLowPass lpf(util::gigahertz(100.0), kDt);
  const double g = measure_gain(lpf, util::megahertz(500.0), kDt);
  EXPECT_GT(g, 0.9);
}

TEST(OnePoleLowPass, InvalidParamsThrow) {
  EXPECT_THROW(OnePoleLowPass(util::hertz(0.0), kDt), std::invalid_argument);
  EXPECT_THROW(OnePoleLowPass(util::gigahertz(1.0), util::seconds(0.0)),
               std::invalid_argument);
}

TEST(OnePoleLowPass, OneLaneKernelMatchesBlockKernelBitForBit) {
  // The single-lane branch of process_lanes is the datapath every
  // one-lane run takes: it must equal process_block exactly, over uneven
  // blocks with the state carried between them.
  std::vector<double> in(1000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.013 * static_cast<double>(i * i)) + 0.25;
  }
  OnePoleLowPass block(util::gigahertz(1.0), kDt);
  const OnePoleLowPass lanes(util::gigahertz(1.0), kDt);
  double x1 = 0.0;
  double y1 = 0.0;
  std::vector<double> expected(in.size());
  std::vector<double> got(in.size());
  std::size_t at = 0;
  for (const std::size_t n : {1u, 7u, 256u, 3u, 733u}) {
    block.process_block(in.data() + at, expected.data() + at, n);
    lanes.process_lanes(in.data() + at, got.data() + at, n, 1, &x1, &y1);
    at += n;
  }
  ASSERT_EQ(at, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "sample " << i;
  }
}

TEST(OnePoleHighPass, BlocksDc) {
  OnePoleHighPass hpf(util::megahertz(10.0), kDt);
  double y = 1.0;
  for (int i = 0; i < 200000; ++i) y = hpf.step(1.0);
  EXPECT_NEAR(y, 0.0, 1e-3);
}

TEST(OnePoleHighPass, PassesHighFrequency) {
  OnePoleHighPass hpf(util::megahertz(10.0), kDt);
  const double g = measure_gain(hpf, util::gigahertz(1.0), kDt);
  EXPECT_NEAR(g, 1.0, 0.02);
}

TEST(BiquadLowPass, DcGainUnity) {
  BiquadLowPass lpf(util::gigahertz(1.0), 0.707, kDt);
  double y = 0.0;
  for (int i = 0; i < 2000; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-4);
}

TEST(BiquadLowPass, SteeperRolloffThanOnePole) {
  BiquadLowPass biquad(util::megahertz(100.0), 0.707, kDt);
  OnePoleLowPass onepole(util::megahertz(100.0), kDt);
  const double g2 = measure_gain(biquad, util::gigahertz(1.0), kDt);
  const double g1 = measure_gain(onepole, util::gigahertz(1.0), kDt);
  EXPECT_LT(g2, g1 * 0.5);  // ~-40 dB/dec vs -20 dB/dec
}

TEST(BiquadLowPass, InvalidQThrows) {
  EXPECT_THROW(BiquadLowPass(util::gigahertz(1.0), 0.0, kDt),
               std::invalid_argument);
}

TEST(FirFilter, ImpulseResponseIsTaps) {
  FirFilter fir({0.5, 0.3, 0.2});
  EXPECT_DOUBLE_EQ(fir.step(1.0), 0.5);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 0.3);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 0.2);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 0.0);
}

TEST(FirFilter, DcGainIsTapSum) {
  FirFilter fir({0.25, 0.25, 0.25, 0.25});
  double y = 0.0;
  for (int i = 0; i < 10; ++i) y = fir.step(2.0);
  EXPECT_DOUBLE_EQ(y, 2.0);
}

TEST(FirFilter, EmptyTapsThrow) {
  EXPECT_THROW(FirFilter({}), std::invalid_argument);
}

TEST(Filter, ProcessAppliesToWholeWaveform) {
  FirFilter fir({2.0});
  Waveform w(util::seconds(0.0), kDt, {1.0, 2.0, 3.0});
  fir.process(w);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 4.0);
  EXPECT_DOUBLE_EQ(w[2], 6.0);
}

// Property: |H| never exceeds 1 (passive filters) across the band.
class LpfGainBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(LpfGainBoundTest, GainBounded) {
  OnePoleLowPass lpf(util::megahertz(GetParam()), kDt);
  for (double f_mhz : {10.0, 50.0, 200.0, 1000.0, 5000.0}) {
    const double g = measure_gain(lpf, util::megahertz(f_mhz), kDt);
    EXPECT_LE(g, 1.02) << "fc=" << GetParam() << " f=" << f_mhz;
  }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LpfGainBoundTest,
                         ::testing::Values(50.0, 200.0, 800.0, 3000.0));

}  // namespace
}  // namespace serdes::analog
