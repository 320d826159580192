// Sweep engine contract tests: grid expansion, exact/disjoint shard
// partitioning, thread-count invariance of the aggregated report (down
// to the serialized bytes), and the JSON fixed-point round trip for
// LinkSpec / RunReport / SweepSpec.
#include "sweep/sweep_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/spec_json.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

namespace serdes::sweep {
namespace {

using util::Json;

/// A fast 64-scenario grid: 4 x 4 x 2 x 2, tiny payloads.
SweepSpec small_grid() {
  SweepSpec sweep;
  sweep.name = "grid64";
  sweep.base.name = "g";
  sweep.base.payload_bits = 1024;
  sweep.base.chunk_bits = 1024;
  sweep.axes.push_back(
      {"channel.loss_db", {Json(10.0), Json(20.0), Json(30.0), Json(40.0)}});
  sweep.axes.push_back({"noise_rms_v",
                        {Json(0.0005), Json(0.001), Json(0.002), Json(0.004)}});
  sweep.axes.push_back({"rx_ctle_boost_db", {Json(0.0), Json(6.0)}});
  sweep.axes.push_back({"tx_ffe_deemphasis", {Json(0.0), Json(0.25)}});
  return sweep;
}

TEST(SweepSpec, GridExpansionCounts) {
  const SweepSpec sweep = small_grid();
  EXPECT_EQ(sweep.scenario_count(), 64u);
  EXPECT_TRUE(sweep.validate().empty()) << sweep.validate();

  // No axes: the grid is the base spec alone.
  SweepSpec single;
  EXPECT_EQ(single.scenario_count(), 1u);

  // Row-major decode, first axis slowest: scenario 0 and 63 hit the axis
  // extremes, and the second axis advances every 4 scenarios.
  EXPECT_DOUBLE_EQ(sweep.scenario(0).channel.loss_db, 10.0);
  EXPECT_DOUBLE_EQ(sweep.scenario(0).noise_rms_v, 0.0005);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).channel.loss_db, 40.0);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).noise_rms_v, 0.004);
  EXPECT_DOUBLE_EQ(sweep.scenario(63).tx_ffe_deemphasis, 0.25);
  EXPECT_DOUBLE_EQ(sweep.scenario(4).noise_rms_v, 0.001);
  EXPECT_THROW((void)sweep.scenario(64), std::out_of_range);

  // Scenario names encode their axis values and are unique.
  std::set<std::string> names;
  for (std::uint64_t i = 0; i < 64; ++i) names.insert(sweep.scenario(i).name);
  EXPECT_EQ(names.size(), 64u);
  EXPECT_NE(sweep.scenario(0).name.find("channel.loss_db=10"),
            std::string::npos);
}

TEST(SweepSpec, AxisValueIndexMatchesScenarioDecode) {
  const SweepSpec sweep = small_grid();
  // axis_value_index is the row-major decode scenario() applies, exposed
  // for single-axis inspection (lint's seed scan, labels): the value it
  // picks must be exactly the one the expanded scenario carries.
  for (const std::uint64_t index : {0u, 1u, 4u, 17u, 63u}) {
    const api::LinkSpec spec = sweep.scenario(index);
    const double loss =
        sweep.axes[0].values[axis_value_index(sweep, 0, index)].as_double();
    const double noise =
        sweep.axes[1].values[axis_value_index(sweep, 1, index)].as_double();
    EXPECT_DOUBLE_EQ(spec.channel.loss_db, loss) << "scenario " << index;
    EXPECT_DOUBLE_EQ(spec.noise_rms_v, noise) << "scenario " << index;
  }
  EXPECT_THROW((void)axis_value_index(sweep, 4, 0), std::out_of_range);
  EXPECT_THROW((void)axis_value_index(sweep, 0, 64), std::out_of_range);
}

TEST(SweepSpec, ScenarioSeedsDeriveFromGridIndex) {
  const SweepSpec sweep = small_grid();
  // Same index -> same seed; different index -> different seed (splitmix64
  // of the grid index, so placement in threads/shards cannot matter).
  EXPECT_EQ(sweep.scenario(5).seed, sweep.scenario(5).seed);
  EXPECT_NE(sweep.scenario(5).seed, sweep.scenario(6).seed);
  EXPECT_EQ(sweep.scenario(7).seed,
            derive_scenario_seed(sweep.base.seed, 7));

  SweepSpec pinned = small_grid();
  pinned.derive_seeds = false;
  EXPECT_EQ(pinned.scenario(5).seed, pinned.base.seed);
}

TEST(SweepSpec, ValidateNamesJsonPaths) {
  SweepSpec sweep = small_grid();
  sweep.axes.push_back({"not_a_field", {Json(1.0)}});
  const std::string err = sweep.validate();
  EXPECT_NE(err.find("$.axes[4].values[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("not_a_field"), std::string::npos) << err;

  SweepSpec empty_axis = small_grid();
  empty_axis.axes[1].values.clear();
  EXPECT_NE(empty_axis.validate().find("$.axes[1].values"),
            std::string::npos);

  SweepSpec bad_base = small_grid();
  bad_base.base.cdr_oversampling = 1;
  EXPECT_NE(bad_base.validate().find("$.base.cdr_oversampling"),
            std::string::npos);

  // A bad value anywhere in an axis — not just position 0 — is caught
  // before the sweep runs, and blamed on its own path, not the base.
  SweepSpec bad_value = small_grid();
  bad_value.axes[1].values[2] = Json(-1.0);  // noise_rms_v axis
  const std::string verr = bad_value.validate();
  EXPECT_NE(verr.find("$.axes[1].values[2]"), std::string::npos) << verr;
  EXPECT_NE(verr.find("noise_rms_v"), std::string::npos) << verr;

  SweepSpec bad_first = small_grid();
  bad_first.axes[1].values[0] = Json(-1.0);
  EXPECT_NE(bad_first.validate().find("$.axes[1].values[0]"),
            std::string::npos)
      << bad_first.validate();

  // Unknown channel kinds swept through an axis resolve with the
  // factory's did-you-mean hint at the value's path.
  SweepSpec typo = small_grid();
  typo.axes.push_back({"channel.kind", {Json("flat"), Json("lossy_lne")}});
  const std::string kerr = typo.validate();
  EXPECT_NE(kerr.find("$.axes[4].values[1]"), std::string::npos) << kerr;
  EXPECT_NE(kerr.find("did you mean 'lossy_line'"), std::string::npos) << kerr;
}

TEST(SweepShard, PartitionIsExactAndDisjoint) {
  const SweepSpec sweep = small_grid();
  const std::uint64_t total = sweep.scenario_count();
  for (const std::uint64_t shards : {2ull, 3ull, 5ull}) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t k = 0; k < shards; ++k) {
      std::uint64_t count = 0;
      for (std::uint64_t i = k; i < total; i += shards) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
        ++count;
      }
      // Modulo partition: shard sizes differ by at most one.
      EXPECT_GE(count, total / shards);
      EXPECT_LE(count, total / shards + 1);
    }
    EXPECT_EQ(seen.size(), total);
  }
}

TEST(SweepRunner, ReportIsByteIdenticalAcrossThreadCounts) {
  const SweepSpec sweep = small_grid();
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    SweepRunner::Options options;
    options.n_threads = threads;
    const SweepReport report = SweepRunner(options).run(sweep);
    EXPECT_EQ(report.scenarios.size(), 64u);
    const std::string text = to_json(report).dump(2);
    if (reference.empty()) {
      reference = text;
    } else {
      EXPECT_EQ(text, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SweepRunner, ShardUnionEqualsUnshardedReport) {
  const SweepSpec sweep = small_grid();
  const SweepReport whole = SweepRunner().run(sweep);

  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  EXPECT_EQ(shards[0].scenarios.size() + shards[1].scenarios.size(),
            whole.scenarios.size());

  const SweepReport merged = merge_shard_rows(shards);
  EXPECT_EQ(to_json(merged).dump(2), to_json(whole).dump(2));
}

TEST(SweepRunner, OverlappingShardsRefuseToMerge) {
  const SweepSpec sweep = small_grid();
  SweepRunner::Options options;
  options.shard = Shard{0, 2};
  const SweepReport shard0 = SweepRunner(options).run(sweep);
  EXPECT_THROW((void)merge_shard_rows({shard0, shard0}),
               std::invalid_argument);
  // An incomplete union (missing shard) must error, not produce a report
  // posing as whole-grid statistics.
  EXPECT_THROW((void)merge_shard_rows({shard0}), std::invalid_argument);
}

TEST(SweepRunner, QuarantinedRowsMergeAndCountAsCoverage) {
  const SweepSpec sweep = small_grid();
  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  // The farm quarantined cell 6 (shard 0) instead of computing it.
  QuarantinedScenario q;
  q.index = 6;
  q.name = sweep.scenario(6).name;
  q.seed = sweep.scenario(6).seed;
  q.attempts = 3;
  q.error = "lease expired (worker silent for 10000 ms)";
  auto& rows = shards[0].scenarios;
  rows.erase(std::find_if(rows.begin(), rows.end(),
                          [](const ScenarioResult& r) { return r.index == 6; }));
  shards[0].quarantined.push_back(q);

  const SweepReport merged = merge_shard_rows(shards);
  EXPECT_EQ(merged.scenarios.size(), 63u);
  ASSERT_EQ(merged.quarantined.size(), 1u);
  EXPECT_EQ(merged.quarantined[0].index, 6u);
  // The quarantine block serializes only when present, and the
  // aggregates count it separately from the computed rows.
  const std::string text = to_json(merged).dump(2);
  EXPECT_NE(text.find("\"quarantined\""), std::string::npos);
  const SweepReport clean = SweepRunner().run(sweep);
  EXPECT_EQ(to_json(clean).dump(2).find("\"quarantined\""), std::string::npos);
}

TEST(SweepRunner, MergeRefusesQuarantineConflicts) {
  const SweepSpec sweep = small_grid();
  std::vector<SweepReport> shards;
  for (std::uint64_t k = 0; k < 2; ++k) {
    SweepRunner::Options options;
    options.shard = Shard{k, 2};
    shards.push_back(SweepRunner(options).run(sweep));
  }
  QuarantinedScenario q;
  q.index = 6;
  q.name = sweep.scenario(6).name;
  q.seed = sweep.scenario(6).seed;
  q.attempts = 2;
  q.error = "worker failure";

  // Computed in shard 0 AND quarantined by shard 1: the shards disagree
  // about the grid, so the merge must refuse, not pick a winner.
  {
    auto conflicted = shards;
    conflicted[1].quarantined.push_back(q);
    try {
      (void)merge_shard_rows(conflicted);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "scenario 6 is both computed and quarantined"),
                std::string::npos)
          << e.what();
    }
  }

  // The same cell quarantined by two shards is a duplicate, like a
  // duplicated result row.
  {
    auto duplicated = shards;
    auto& rows = duplicated[0].scenarios;
    rows.erase(std::find_if(rows.begin(), rows.end(), [](const auto& r) {
      return r.index == 6;
    }));
    duplicated[0].quarantined.push_back(q);
    duplicated[1].quarantined.push_back(q);
    try {
      (void)merge_shard_rows(duplicated);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "quarantined scenario 6 appears in more than one shard"),
                std::string::npos)
          << e.what();
    }
  }

  // Dropping a cell entirely (neither computed nor quarantined) is an
  // incomplete union: still refused.
  {
    auto incomplete = shards;
    auto& rows = incomplete[0].scenarios;
    rows.erase(std::find_if(rows.begin(), rows.end(), [](const auto& r) {
      return r.index == 6;
    }));
    try {
      (void)merge_shard_rows(incomplete);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("union covers 63 of 64"),
                std::string::npos)
          << e.what();
    }
  }

  // Reports from different sweeps never merge.
  {
    auto renamed = shards;
    renamed[1].sweep_name = "someone_else";
    EXPECT_THROW((void)merge_shard_rows(renamed), std::invalid_argument);
  }
}

TEST(SweepRunner, AggregatesMatchRows) {
  SweepSpec sweep = small_grid();
  const SweepReport report = SweepRunner().run(sweep);
  ASSERT_EQ(report.scenarios.size(), 64u);
  double min_ber = 1e9, max_ber = -1e9;
  std::uint64_t bits = 0;
  for (const auto& row : report.scenarios) {
    min_ber = std::min(min_ber, row.ber);
    max_ber = std::max(max_ber, row.ber);
    bits += row.bits;
  }
  EXPECT_DOUBLE_EQ(report.ber.min, min_ber);
  EXPECT_DOUBLE_EQ(report.ber.max, max_ber);
  EXPECT_EQ(report.total_bits, bits);
  EXPECT_GE(report.ber.p90, report.ber.p50);
  EXPECT_GE(report.ber.p99, report.ber.p90);
  // The clean low-loss corner must be error-free, the 40 dB + heavy-noise
  // corner must not be: the surfaces span both regimes.
  EXPECT_GT(report.error_free_count, 0u);
  EXPECT_LT(report.error_free_count, 64u);
}

TEST(SpecJson, LinkSpecRoundTripIsFixedPoint) {
  api::LinkSpec spec;
  spec.name = "rt";
  spec.channel = api::ChannelSpec::cascade(
      {api::ChannelSpec::rc(1.7e9, 3.0),
       api::ChannelSpec::fir({1.0, 0.4, -0.08}, 2),
       api::ChannelSpec::lossy_line(5.0, 6.0, 4.0)});
  spec.noise_rms_v = 0.0025;
  spec.seed = 18446744073709551615ull;  // above 2^53: must stay exact
  spec.prbs_order = util::PrbsOrder::kPrbs15;
  spec.dsp = true;

  const std::string once = api::to_json(spec).dump();
  const api::LinkSpec reparsed =
      api::link_spec_from_json(util::Json::parse(once));
  const std::string twice = api::to_json(reparsed).dump();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(reparsed.seed, spec.seed);
  EXPECT_EQ(reparsed.prbs_order, spec.prbs_order);
  ASSERT_EQ(reparsed.channel.stages.size(), 3u);
  EXPECT_EQ(reparsed.channel.stages[1].fir_taps, spec.channel.stages[1].fir_taps);
}

TEST(SpecJson, RunReportRoundTripIsFixedPoint) {
  const api::Simulator sim;
  api::LinkSpec spec;
  spec.payload_bits = 1024;
  spec.chunk_bits = 1024;
  const api::RunReport report = sim.run(spec);

  const std::string once = api::to_json(report).dump();
  const api::RunReport reparsed =
      api::run_report_from_json(util::Json::parse(once));
  EXPECT_EQ(api::to_json(reparsed).dump(), once);
  EXPECT_EQ(reparsed.bits, report.bits);
  EXPECT_EQ(reparsed.errors, report.errors);
  EXPECT_DOUBLE_EQ(reparsed.eye.eye_height, report.eye.eye_height);
}

TEST(SpecJson, SweepSpecRoundTripIsFixedPoint) {
  const SweepSpec sweep = small_grid();
  const std::string once = sweep.to_json().dump();
  const SweepSpec reparsed = SweepSpec::from_json(util::Json::parse(once));
  EXPECT_EQ(reparsed.to_json().dump(), once);
  EXPECT_EQ(reparsed.scenario_count(), sweep.scenario_count());
}

TEST(SpecJson, RemovedStreamingFieldIsRejectedWithMigrationHint) {
  // Every Monte Carlo run streams; a spec still carrying the retired
  // execution toggle is rejected at its own path, whatever the value.
  for (const char* text : {R"({"streaming": true})", R"({"streaming": false})"}) {
    try {
      (void)api::link_spec_from_json(util::Json::parse(text));
      FAIL() << "expected JsonError for " << text;
    } catch (const util::JsonError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("$.streaming", 0), 0u) << what;
      EXPECT_NE(what.find("every Monte Carlo run now streams"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(api::to_json(api::LinkSpec{}).find("streaming"), nullptr);
}

TEST(SpecJson, ErrorsNameJsonPaths) {
  // Unknown LinkSpec field, with a did-you-mean hint.
  try {
    (void)api::link_spec_from_json(
        util::Json::parse(R"({"noise_rms": 0.001})"));
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.noise_rms"), std::string::npos) << what;
    EXPECT_NE(what.find("noise_rms_v"), std::string::npos) << what;
  }

  // Type mismatch deep in a composite channel.
  try {
    (void)api::link_spec_from_json(util::Json::parse(
        R"({"channel":{"kind":"composite","stages":[{"kind":"fir","fir_taps":"oops"}]}})"));
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.channel.stages[0].fir_taps"),
              std::string::npos)
        << e.what();
  }

  // Validation findings carry the field path too.
  api::LinkSpec bad;
  bad.channel = api::ChannelSpec::cascade(
      {api::ChannelSpec::flat(3.0), api::ChannelSpec::fir({})});
  bad.channel.stages[1].fir_taps.clear();
  const auto issue = bad.first_issue();
  EXPECT_EQ(issue.field, "channel.stages[1].fir_taps");
  EXPECT_NE(api::validate_spec_with_paths(bad).find(
                "$.channel.stages[1].fir_taps"),
            std::string::npos);

  // Unknown channel kinds resolve to their path with the factory hint.
  api::LinkSpec typo;
  typo.channel = api::ChannelSpec::cascade({api::ChannelSpec::flat(3.0)});
  typo.channel.stages[0].kind = "lossy_lne";
  const std::string err = api::validate_spec_with_paths(typo);
  EXPECT_NE(err.find("$.channel.stages[0].kind"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'lossy_line'"), std::string::npos) << err;
}

}  // namespace
}  // namespace serdes::sweep
