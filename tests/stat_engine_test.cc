// Statistical-engine suite: closed-form regression pins for the mixture
// primitives (pure AWGN and two-tap ISI at <= 1e-12), grid-vs-exact
// consistency, engine-level sanity at the paper operating point, the
// analysis-mode plumbing through api::Simulator, and — the core of the
// golden-report tier — MC-vs-stat cross-validation: for every built-in
// channel kind the Monte Carlo BER must fall inside the stat engine's
// predicted band.  SlowDeep cases re-run the cross-validation at 1M bits.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/api.h"
#include "api/channel_factory.h"
#include "api/spec_json.h"
#include "stat/stat_engine.h"
#include "util/math.h"

namespace serdes {
namespace {

using stat::IsiMixture;
using stat::StatAnalyzer;

double q(double x) { return util::q_function(x); }

TEST(IsiMixtureTest, PureAwgnMatchesQFunctionClosedForm) {
  // No ISI: slicer error probability collapses to the two-sided Q form.
  const IsiMixture mix = IsiMixture::build({});
  for (const double h : {0.03, 0.002}) {
    for (const double offset : {0.0, 0.0003, -0.0007}) {
      for (const double sigma : {0.005, 0.001, 0.00017}) {
        const double expected = 0.5 * (q((0.5 * h + offset) / sigma) +
                                       q((0.5 * h - offset) / sigma));
        const double got =
            stat::slicer_error_probability(h, mix, offset, sigma);
        // Deep tails included: at sigma = 0.00017 the BER is ~1e-17.
        EXPECT_NEAR(got, expected, 1e-12 * expected + 1e-300)
            << "h=" << h << " offset=" << offset << " sigma=" << sigma;
      }
    }
  }
}

TEST(IsiMixtureTest, TwoTapIsiMatchesClosedForm) {
  // One ISI cursor c: the symbol sees +/- c/2 with probability 1/2 each,
  // so the BER is the average of four Gaussian tails.
  const double h = 0.036;
  const double c = 0.008;
  const double sigma = 0.0009;
  const double offset = 0.0002;
  const IsiMixture mix = IsiMixture::build({c});
  ASSERT_TRUE(mix.exact());
  const double expected =
      0.25 * (q((0.5 * h + offset + 0.5 * c) / sigma) +
              q((0.5 * h + offset - 0.5 * c) / sigma) +
              q((0.5 * h - offset + 0.5 * c) / sigma) +
              q((0.5 * h - offset - 0.5 * c) / sigma));
  const double got = stat::slicer_error_probability(h, mix, offset, sigma);
  EXPECT_NEAR(got, expected, 1e-12 * expected);
}

TEST(IsiMixtureTest, ExactEnumerationMatchesHandRolledSum) {
  const std::vector<double> cursors = {0.004, -0.002, 0.0013};
  const double h = 0.03;
  const double sigma = 0.0011;
  const IsiMixture mix = IsiMixture::build(cursors);
  ASSERT_TRUE(mix.exact());
  double expected = 0.0;
  for (int pattern = 0; pattern < 8; ++pattern) {
    double isi = 0.0;
    for (int k = 0; k < 3; ++k) {
      isi += ((pattern >> k) & 1 ? 0.5 : -0.5) * cursors[static_cast<std::size_t>(k)];
    }
    expected += 0.5 * (q((0.5 * h + isi) / sigma) + q((0.5 * h - isi) / sigma));
  }
  expected /= 8.0;
  EXPECT_NEAR(stat::slicer_error_probability(h, mix, 0.0, sigma), expected,
              1e-12 * expected);
}

TEST(IsiMixtureTest, GridConvolutionTracksExactEnumeration) {
  // 14 cursors exceed the default exact budget; the grid path must agree
  // with a forced exact enumeration to well within the cross-check slack.
  std::vector<double> cursors;
  for (int k = 0; k < 14; ++k) {
    cursors.push_back(0.004 / (1.0 + 0.6 * k) * (k % 2 == 0 ? 1.0 : -1.0));
  }
  IsiMixture::Options exact_opts;
  exact_opts.max_exact_bits = 16;
  const IsiMixture exact = IsiMixture::build(cursors, exact_opts);
  const IsiMixture grid = IsiMixture::build(cursors);
  ASSERT_TRUE(exact.exact());
  ASSERT_FALSE(grid.exact());
  const double h = 0.03;
  for (const double sigma : {0.003, 0.0008}) {
    const double be = stat::slicer_error_probability(h, exact, 0.0, sigma);
    const double bg = stat::slicer_error_probability(h, grid, 0.0, sigma);
    EXPECT_NEAR(bg, be, 0.02 * be) << "sigma=" << sigma;
  }
}

TEST(IsiMixtureTest, QuantilesInvertTails) {
  const IsiMixture mix = IsiMixture::build({0.006, 0.003, -0.0015});
  const double sigma = 0.0007;
  for (const double p : {1e-3, 1e-9, 1e-15}) {
    const double lo = mix.lower_quantile(p, sigma);
    EXPECT_NEAR(mix.lower_tail(lo, sigma), p, 1e-6 * p) << "p=" << p;
    const double hi = mix.upper_quantile(p, sigma);
    EXPECT_NEAR(mix.upper_tail(hi, sigma), p, 1e-6 * p) << "p=" << p;
    EXPECT_LT(lo, hi);
  }
}

TEST(PoissonBandTest, CoversTheMeanAndRejectsOutliers) {
  {
    const auto [lo, hi] = stat::poisson_band(1e-9);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 0u);
  }
  {
    const auto [lo, hi] = stat::poisson_band(5.0);
    EXPECT_EQ(lo, 0u);
    EXPECT_GE(hi, 10u);
    EXPECT_LT(hi, 30u);
  }
  {
    const auto [lo, hi] = stat::poisson_band(10000.0);
    EXPECT_LT(lo, 10000u);
    EXPECT_GT(hi, 10000u);
    EXPECT_GT(lo, 9000u);
    EXPECT_LT(hi, 11000u);
  }
}

TEST(StatAnalyzerTest, PaperDefaultReachesDeepBerInstantly) {
  const api::LinkSpec spec = api::LinkSpec::paper_default();
  const core::LinkConfig cfg = spec.to_link_config();
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);
  const stat::StatReport report = StatAnalyzer().analyze(cfg, *channel);

  ASSERT_EQ(report.bathtub_ber.size(), 64u);
  ASSERT_EQ(report.contour_high_v.size(), 64u);
  ASSERT_EQ(report.contour_low_v.size(), 64u);
  // The paper point runs error-free in MC; analytically its BER is far
  // below the 1e-15 link-budget target with a wide margin at that target.
  EXPECT_LT(report.min_ber, 1e-20);
  EXPECT_GT(report.timing_margin_ui, 0.4);
  EXPECT_GT(report.eye_height_v, 0.0);
  EXPECT_GT(report.voltage_margin_v, 0.0);
  EXPECT_GT(report.main_cursor_v, 0.02);
  EXPECT_GT(report.sigma_v, 0.0);
  // Bathtub walls: phases near the bit boundary are orders of magnitude
  // worse than the center.
  double worst = 0.0;
  for (const double b : report.bathtub_ber) worst = std::max(worst, b);
  EXPECT_GT(worst, 1e-3);
}

TEST(StatAnalyzerTest, DeterministicAcrossCalls) {
  const api::LinkSpec spec = api::LinkSpec::paper_default();
  const core::LinkConfig cfg = spec.to_link_config();
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);
  const stat::StatReport a = StatAnalyzer().analyze(cfg, *channel);
  const stat::StatReport b = StatAnalyzer().analyze(cfg, *channel);
  EXPECT_EQ(api::to_json(a).dump(), api::to_json(b).dump());
}

TEST(SimulatorAnalysisModes, StatSkipsMonteCarloEntirely) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.analysis = "stat";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value());
  EXPECT_FALSE(report.stat->cross_checked);
  EXPECT_EQ(report.bits, 0u);
  EXPECT_FALSE(report.aligned);
}

TEST(SimulatorAnalysisModes, McOmitsStatReport) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.payload_bits = 4096;
  const api::RunReport report = api::Simulator().run(spec);
  EXPECT_FALSE(report.stat.has_value());
  EXPECT_GT(report.bits, 0u);
}

TEST(SimulatorAnalysisModes, InvalidAnalysisIsRejectedWithFieldPath) {
  api::LinkSpec spec;
  spec.analysis = "statt";
  const auto issue = spec.first_issue();
  EXPECT_EQ(issue.field, "analysis");
  EXPECT_FALSE(issue.ok());
}

TEST(SimulatorAnalysisModes, StatReportJsonRoundTripsExactly) {
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.analysis = "stat";
  const api::RunReport report = api::Simulator().run(spec);
  const std::string once = api::to_json(report).dump();
  const api::RunReport reparsed =
      api::run_report_from_json(util::Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(), once);
  ASSERT_TRUE(reparsed.stat.has_value());
  EXPECT_EQ(reparsed.stat->bathtub_ber.size(),
            report.stat->bathtub_ber.size());
}

TEST(SimulatorAnalysisModes, StatOnlyReportCarriesNoCrossCheckOutcome) {
  // No MC ran, so there is no cross-check verdict to report: the stat
  // section says cross_checked: false and omits consistent / mc_ber /
  // band_*, and stat_report_from_json still accepts a report that has
  // them.  JSON round-trip stays a fixed point.
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.analysis = "stat";
  const util::Json j = api::to_json(api::Simulator().run(spec));
  const util::Json* stat = j.find("stat");
  ASSERT_NE(stat, nullptr);
  ASSERT_NE(stat->find("cross_checked"), nullptr);
  EXPECT_FALSE(stat->find("cross_checked")->as_bool());
  for (const char* key : {"consistent", "mc_ber", "band_low", "band_high"}) {
    EXPECT_EQ(stat->find(key), nullptr) << key;
  }
  const std::string once = j.dump();
  EXPECT_EQ(api::to_json(api::run_report_from_json(util::Json::parse(once)))
                .dump(),
            once);

  util::Json legacy = *stat;
  legacy.set("consistent", false);
  legacy.set("mc_ber", 0.0);
  const stat::StatReport parsed = api::stat_report_from_json(legacy);
  EXPECT_FALSE(parsed.cross_checked);
  EXPECT_EQ(api::to_json(parsed).dump(), stat->dump());
}

// ---------------------------------------------------------------------------
// MC-vs-stat cross-validation: the heart of the "both" regression tier.
// ---------------------------------------------------------------------------

/// One "both" run; asserts the MC BER landed inside the predicted band.
void expect_consistent(api::ChannelSpec channel, double noise_rms,
                       std::uint64_t payload_bits,
                       std::uint64_t chunk_bits = 4096) {
  api::LinkSpec spec;
  spec.name = "cross_check";
  spec.channel = std::move(channel);
  spec.noise_rms_v = noise_rms;
  spec.payload_bits = payload_bits;
  spec.chunk_bits = chunk_bits;
  spec.analysis = "both";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value()) << spec.channel.kind;
  const stat::StatReport& s = *report.stat;
  EXPECT_TRUE(s.cross_checked) << spec.channel.kind;
  EXPECT_TRUE(s.consistent)
      << spec.channel.kind << ": mc_ber=" << s.mc_ber << " ("
      << report.errors << "/" << report.bits << ") outside band ["
      << s.band_low << ", " << s.band_high << "], stat min_ber="
      << s.min_ber;
  EXPECT_LE(s.band_low, s.band_high);
}

TEST(McVsStat, FlatChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::flat(34.0), 0.006, 100000);
}

TEST(McVsStat, RcChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::rc(2.5e9, 24.0), 0.004, 100000);
}

TEST(McVsStat, LossyLineChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::lossy_line(8.0, 8.0, 6.0), 0.015,
                    100000);
}

TEST(McVsStat, FirChannelWithinPredictedBand) {
  expect_consistent(api::ChannelSpec::fir({0.1, 0.55, 0.25, -0.08}), 0.08,
                    100000);
}

TEST(McVsStat, DeepBerScenarioStaysErrorFreeAndConsistent) {
  // At the paper operating point MC sees zero errors; the stat engine must
  // agree that zero errors over this many bits is the expected outcome.
  api::LinkSpec spec = api::LinkSpec::paper_default();
  spec.payload_bits = 20000;
  spec.analysis = "both";
  const api::RunReport report = api::Simulator().run(spec);
  ASSERT_TRUE(report.stat.has_value());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.stat->consistent);
  EXPECT_LT(report.stat->band_high, 1e-6);
}

// ---- SlowDeep tier: nightly-depth sweeps --------------------------------

TEST(SlowDeep, CrossValidationAtOneMillionBits) {
  expect_consistent(api::ChannelSpec::flat(34.0), 0.006, 1u << 20);
  // Dispersive channels truncate a couple of tail bits per chunk, so the
  // deep runs use one chunk: the chunked accounting otherwise tops the
  // payload up with tiny catch-up chunks whose framing failures measure
  // the deframer, not the slicer.
  expect_consistent(api::ChannelSpec::rc(2.5e9, 24.0), 0.004, 1u << 20,
                    1u << 20);
  expect_consistent(api::ChannelSpec::lossy_line(8.0, 8.0, 6.0), 0.015,
                    1u << 20, 1u << 20);
  expect_consistent(api::ChannelSpec::fir({0.1, 0.55, 0.25, -0.08}), 0.08,
                    1u << 20, 1u << 20);
}

TEST(SlowDeep, NoiseSweepStaysConsistentOnFlatChannel) {
  for (const double noise : {0.004, 0.006, 0.008, 0.010}) {
    expect_consistent(api::ChannelSpec::flat(34.0), noise, 1u << 18);
  }
}

}  // namespace
}  // namespace serdes
