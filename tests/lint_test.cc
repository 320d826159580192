// Lint-rule regression tier: a seeded defect corpus with one spec per
// registry rule, each asserting the rule id, the JSON path the finding
// anchors to and its severity — so a rule that stops firing, moves its
// anchor or changes severity fails here by name.  Also pins the
// complementary direction: every checked-in spec under examples/specs/
// (except the intentionally-flagged lint_demo.json) lints clean at
// --deny info, and LintReport JSON is a strict round-trip fixed point.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/bus_spec.h"
#include "api/spec_json.h"
#include "lint/lint.h"
#include "sweep/sweep_spec.h"
#include "util/json.h"

#ifndef SERDES_SOURCE_DIR
#error "lint_test needs SERDES_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace serdes {
namespace {

namespace fs = std::filesystem;

using lint::Finding;
using lint::Linter;
using lint::LintReport;
using lint::Severity;
using util::Json;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << path << ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The single finding `report` must contain for rule `rule`, asserted
/// against its expected anchor and severity.  Extra findings from other
/// rules are tolerated only when `exclusive` is off (some defects
/// legitimately trip a second rule).
void expect_finding(const LintReport& report, const std::string& rule,
                    const std::string& path, Severity severity,
                    bool exclusive = true) {
  const Finding* hit = nullptr;
  for (const auto& f : report.findings) {
    if (f.rule == rule) {
      EXPECT_EQ(hit, nullptr) << "rule '" << rule << "' fired twice";
      hit = &f;
    }
  }
  ASSERT_NE(hit, nullptr) << "rule '" << rule << "' did not fire; report:\n"
                          << lint::to_json(report).dump(2);
  EXPECT_EQ(hit->path, path) << "rule '" << rule << "' anchor moved";
  EXPECT_EQ(hit->severity, severity) << "rule '" << rule << "' severity";
  EXPECT_FALSE(hit->message.empty());
  EXPECT_FALSE(hit->hint.empty());
  if (exclusive) {
    EXPECT_EQ(report.findings.size(), 1u)
        << "defect spec for '" << rule << "' tripped extra rules:\n"
        << lint::to_json(report).dump(2);
  }
}

void expect_no_finding(const LintReport& report, const std::string& rule) {
  for (const auto& f : report.findings) {
    EXPECT_NE(f.rule, rule) << "rule '" << rule << "' fired at " << f.path;
  }
}

// ---- Registry contract ----------------------------------------------

TEST(LintRules, RegistryIdsAreUniqueAndStable) {
  std::set<std::string> ids;
  for (const auto& info : lint::rules()) {
    EXPECT_TRUE(ids.insert(info.id).second) << "duplicate rule id " << info.id;
    EXPECT_FALSE(info.summary.empty()) << info.id;
  }
  // Growing the registry is fine; silently dropping a rule is not.
  EXPECT_GE(lint::rules().size(), 20u);
}

TEST(LintRules, DefaultSpecAndShippedSpecsAreClean) {
  const Linter linter;
  EXPECT_TRUE(linter.lint(api::LinkSpec{}).clean());
  EXPECT_TRUE(linter.lint(api::LinkSpec::paper_default()).clean());

  std::size_t checked = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SERDES_SOURCE_DIR) / "examples" /
                              "specs")) {
    if (entry.path().extension() != ".json") continue;
    if (entry.path().filename() == "lint_demo.json") continue;
    if (entry.path().filename() == "lint_demo_bus.json") continue;
    const Json doc = Json::parse(read_file(entry.path()));
    const LintReport report =
        doc.find("axes") != nullptr
            ? linter.lint(sweep::SweepSpec::from_json(doc))
            : api::looks_like_bus_spec(doc)
                  ? linter.lint(api::bus_spec_from_json(doc))
                  : linter.lint(api::link_spec_from_json(doc));
    EXPECT_TRUE(report.clean())
        << entry.path().filename() << " must lint clean:\n"
        << lint::to_json(report).dump(2);
    ++checked;
  }
  EXPECT_GE(checked, 4u) << "shipped spec corpus went missing";
}

TEST(LintRules, LintDemoSpecIsIntentionallyFlagged) {
  const fs::path demo =
      fs::path(SERDES_SOURCE_DIR) / "examples" / "specs" / "lint_demo.json";
  const api::LinkSpec spec =
      api::link_spec_from_json(Json::parse(read_file(demo)));
  // Still runnable — lint catches what validation cannot.
  EXPECT_EQ(api::validate_spec_with_paths(spec), "");
  const LintReport report = Linter().lint(spec);
  EXPECT_GE(report.count_at_least(Severity::kWarning), 1u);
}

// ---- Defect corpus: one spec per spec-level rule ---------------------

TEST(LintRules, UnderpoweredCrossCheck) {
  api::LinkSpec spec;
  spec.analysis = "both";
  spec.payload_bits = 2048;
  spec.chunk_bits = 2048;
  expect_finding(Linter().lint(spec), "underpowered-cross-check",
                 "$.payload_bits", Severity::kWarning);
}

TEST(LintRules, UnreachableStatTarget) {
  api::LinkSpec spec;
  spec.analysis = "stat";
  spec.channel = api::ChannelSpec::flat(60.0);
  spec.noise_rms_v = 0.01;
  spec.stat_target_ber = 1e-15;
  expect_finding(Linter().lint(spec), "unreachable-stat-target",
                 "$.stat_target_ber", Severity::kWarning);
  // Relaxing the loss makes the bound reachable again.
  spec.channel = api::ChannelSpec::flat(6.0);
  spec.noise_rms_v = 0.001;
  EXPECT_TRUE(Linter().lint(spec).clean());
}

TEST(LintRules, StatGridFallback) {
  api::LinkSpec spec;
  spec.analysis = "stat";
  spec.channel = api::ChannelSpec::fir(std::vector<double>(20, 0.05));
  expect_finding(Linter().lint(spec), "stat-grid-fallback", "$.channel",
                 Severity::kWarning);
  // 12 cursors (13 taps) still enumerates exactly — no finding.
  spec.channel = api::ChannelSpec::fir(std::vector<double>(13, 0.0769));
  EXPECT_TRUE(Linter().lint(spec).clean());
}

TEST(LintRules, DspInert) {
  api::LinkSpec spec;
  spec.dsp = true;  // flat default channel: nothing to accelerate
  expect_finding(Linter().lint(spec), "dsp-inert", "$.dsp",
                 Severity::kWarning);
}

TEST(LintRules, DspBelowCrossover) {
  api::LinkSpec spec;
  spec.dsp = true;
  spec.channel = api::ChannelSpec::fir({0.7, 0.2, 0.1});
  expect_finding(Linter().lint(spec), "dsp-below-crossover", "$.dsp",
                 Severity::kInfo);
  // A lossy line lowers to a long impulse — above the crossover, clean.
  spec.channel = api::ChannelSpec::lossy_line(4.0, 18.0, 14.0);
  EXPECT_TRUE(Linter().lint(spec).clean());
}

TEST(LintRules, BlockExceedsChunk) {
  api::LinkSpec spec;
  spec.chunk_bits = 512;  // 8192 samples — inside one 16384-sample block
  spec.payload_bits = 4096;
  expect_finding(Linter().lint(spec), "block-exceeds-chunk",
                 "$.stream_block_samples", Severity::kInfo);
}

TEST(LintRules, CdrWindowExceedsPreamble) {
  api::LinkSpec spec;
  spec.cdr_window_uis = 300;
  spec.preamble_bits = 256;
  expect_finding(Linter().lint(spec), "cdr-window-exceeds-preamble",
                 "$.cdr_window_uis", Severity::kWarning);
}

TEST(LintRules, ExcessiveJitter) {
  api::LinkSpec spec;  // UI = 500 ps; threshold 0.3 UI = 150 ps
  spec.random_jitter_s = 60e-12;  // 3 sigma = 180 ps
  expect_finding(Linter().lint(spec), "excessive-jitter", "$.random_jitter_s",
                 Severity::kWarning);
  // SJ-dominated blames the sinusoidal term instead.
  spec.random_jitter_s = 2e-12;
  spec.sinusoidal_jitter_s = 200e-12;
  expect_finding(Linter().lint(spec), "excessive-jitter",
                 "$.sinusoidal_jitter_s", Severity::kWarning);
}

TEST(LintRules, IneffectiveField) {
  api::LinkSpec spec;
  spec.sj_freq_ratio = 0.1;  // read only when sinusoidal_jitter_s > 0
  expect_finding(Linter().lint(spec), "ineffective-field", "$.sj_freq_ratio",
                 Severity::kInfo);
  spec = api::LinkSpec{};
  spec.rx_ctle_pole_hz = 1e9;  // read only when the CTLE is enabled
  expect_finding(Linter().lint(spec), "ineffective-field",
                 "$.rx_ctle_pole_hz", Severity::kInfo);
  spec = api::LinkSpec{};
  spec.stat_target_ber = 1e-12;  // read only by the stat engine
  expect_finding(Linter().lint(spec), "ineffective-field",
                 "$.stat_target_ber", Severity::kInfo);
  spec = api::LinkSpec{};
  spec.lane_batch = 8;
  spec.analysis = "stat";
  expect_finding(Linter().lint(spec), "ineffective-field", "$.lane_batch",
                 Severity::kInfo);
  spec = api::LinkSpec{};
  spec.lane_batch = 8;  // trained lanes each train their own EQ: no tiling
  spec.eq = "trained";
  expect_finding(Linter().lint(spec), "ineffective-field", "$.lane_batch",
                 Severity::kInfo);
  spec = api::LinkSpec{};
  spec.lane_batch = 8;  // NRZ "mc": tiling live, no finding
  expect_no_finding(Linter().lint(spec), "ineffective-field");
  spec.modulation = "pam4";  // PAM4 "mc" tiles too
  expect_no_finding(Linter().lint(spec), "ineffective-field");
}

TEST(LintRules, ChunkExceedsPayload) {
  api::LinkSpec spec;
  spec.chunk_bits = 8192;
  spec.payload_bits = 4096;
  expect_finding(Linter().lint(spec), "chunk-exceeds-payload", "$.chunk_bits",
                 Severity::kInfo);
}

TEST(LintRules, TrainedEqWithFixedKnobs) {
  api::LinkSpec spec;
  spec.eq = "trained";
  spec.rx_ctle_boost_db = 3.0;
  expect_finding(Linter().lint(spec), "trained-eq-with-fixed-knobs", "$.eq",
                 Severity::kWarning);
  // Every demoted knob trips the rule on its own.
  spec = api::LinkSpec{};
  spec.eq = "trained";
  spec.tx_ffe_deemphasis = 0.2;
  expect_finding(Linter().lint(spec), "trained-eq-with-fixed-knobs", "$.eq",
                 Severity::kWarning);
  spec = api::LinkSpec{};
  spec.eq = "trained";
  spec.dfe_taps = {0.05};
  expect_finding(Linter().lint(spec), "trained-eq-with-fixed-knobs", "$.eq",
                 Severity::kWarning);
  // Trained with no fixed EQ knobs is the supported shape — clean.
  spec = api::LinkSpec{};
  spec.eq = "trained";
  EXPECT_TRUE(Linter().lint(spec).clean());
  // And fixed knobs under eq "fixed" bind for real — no finding.
  spec = api::LinkSpec{};
  spec.rx_ctle_boost_db = 3.0;
  spec.dfe_taps = {0.05};
  expect_no_finding(Linter().lint(spec), "trained-eq-with-fixed-knobs");
}

// ---- Defect corpus: grid-level rules ---------------------------------

sweep::SweepSpec noise_sweep() {
  sweep::SweepSpec sweep;
  sweep.name = "defect";
  sweep.axes.push_back(
      {"noise_rms_v", {Json(0.001), Json(0.002), Json(0.004)}});
  return sweep;
}

TEST(LintRules, DegenerateAxis) {
  sweep::SweepSpec sweep = noise_sweep();
  sweep.axes.push_back({"dsp", {Json(true)}});
  expect_finding(Linter().lint(sweep), "degenerate-axis", "$.axes[1].values",
                 Severity::kWarning);
}

TEST(LintRules, DuplicateAxisValue) {
  sweep::SweepSpec sweep = noise_sweep();
  sweep.axes[0].values.push_back(Json(0.002));
  expect_finding(Linter().lint(sweep), "duplicate-axis-value",
                 "$.axes[0].values[3]", Severity::kWarning);
}

TEST(LintRules, GridBudget) {
  Linter::Options options;
  options.grid_budget = 8;
  sweep::SweepSpec sweep = noise_sweep();
  sweep.axes.push_back({"seed", {Json(std::uint64_t{1}), Json(std::uint64_t{2}),
                                 Json(std::uint64_t{3})}});
  ASSERT_EQ(sweep.scenario_count(), 9u);
  expect_finding(Linter(options).lint(sweep), "grid-budget", "$.axes",
                 Severity::kWarning);
}

TEST(LintRules, SharedSeedGrid) {
  sweep::SweepSpec sweep = noise_sweep();
  sweep.derive_seeds = false;
  expect_finding(Linter().lint(sweep), "shared-seed-grid", "$.derive_seeds",
                 Severity::kWarning);
  // An explicit seed axis varies the noise anyway — clean.
  sweep.axes.push_back({"seed", {Json(std::uint64_t{1}), Json(std::uint64_t{2})}});
  EXPECT_TRUE(Linter().lint(sweep).clean());
}

TEST(LintRules, SeedCollision) {
  // derive_scenario_seed mixes base ^ (phi * (index + 1)), so a seed
  // axis whose second value is s1 ^ phi ^ 2*phi collides scenario 1
  // with scenario 0 before the mix even runs.
  constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ull;
  const std::uint64_t s1 = 1234;
  const std::uint64_t s2 = s1 ^ kPhi ^ (kPhi * 2);
  ASSERT_EQ(sweep::derive_scenario_seed(s1, 0),
            sweep::derive_scenario_seed(s2, 1));
  sweep::SweepSpec sweep;
  sweep.name = "collide";
  sweep.axes.push_back({"seed", {Json(s1), Json(s2)}});
  expect_finding(Linter().lint(sweep), "seed-collision", "$.axes[0].values",
                 Severity::kError);
  // Perturbing the second seed restores distinct derivations.
  sweep.axes[0].values[1] = Json(s2 ^ 1);
  EXPECT_TRUE(Linter().lint(sweep).clean());
}

TEST(LintRules, StoreKeyCollision) {
  // With derive_seeds off, two grid cells that expand to byte-identical
  // specs share one result-store content key — a store-backed run would
  // silently serve one cell's row for both.  A duplicated axis value is
  // the canonical way to make such a pair.
  sweep::SweepSpec sweep = noise_sweep();
  sweep.derive_seeds = false;
  sweep.axes[0].values.push_back(Json(0.002));
  // The duplicate value and the shared seed policy each trip their own
  // rules too, so this corpus entry is non-exclusive.
  expect_finding(Linter().lint(sweep), "store-key-collision",
                 "$.derive_seeds", Severity::kWarning, /*exclusive=*/false);

  // Grid-index seed derivation keys every cell apart even with the
  // duplicate value — no collision, and the rule stays quiet.
  sweep.derive_seeds = true;
  expect_no_finding(Linter().lint(sweep), "store-key-collision");

  // The scan is capped: a grid past the limit is skipped, not O(n^2)'d.
  Linter::Options capped;
  capped.store_key_check_limit = 2;
  sweep.derive_seeds = false;
  expect_no_finding(Linter(capped).lint(sweep), "store-key-collision");
}

// ---- Sweep/base interaction ------------------------------------------

TEST(LintRules, AxisOverwritesSuppressBaseFindings) {
  sweep::SweepSpec sweep = noise_sweep();
  sweep.base.dsp = true;  // inert on the flat base channel...
  expect_finding(Linter().lint(sweep), "dsp-inert", "$.base.dsp",
                 Severity::kWarning);
  // ...but once an axis sweeps dsp itself, the base value no longer
  // decides what scenarios see — the finding is suppressed.
  sweep.axes.push_back({"dsp", {Json(true), Json(false)}});
  const LintReport report = Linter().lint(sweep);
  for (const auto& f : report.findings) EXPECT_NE(f.rule, "dsp-inert");
}

// ---- Bus-level rules -------------------------------------------------

api::BusSpec clean_bus(int lanes) {
  api::BusSpec bus;
  bus.name = "lintbus";
  bus.lanes = lanes;
  bus.base = api::LinkSpec{};  // default spec lints clean
  return bus;
}

TEST(LintRules, Pam4InsufficientSwing) {
  api::LinkSpec spec;
  spec.modulation = "pam4";
  spec.channel = api::ChannelSpec::flat(40.0);
  spec.noise_rms_v = 0.01;
  expect_finding(Linter().lint(spec), "pam4-insufficient-swing",
                 "$.modulation", Severity::kWarning);
  // Same noise budget carries nrz at this loss — the rule is
  // modulation-gated, not a general noise rule.
  spec.modulation = "nrz";
  expect_no_finding(Linter().lint(spec), "pam4-insufficient-swing");
  // And pam4 with real headroom is clean.
  spec.modulation = "pam4";
  spec.channel = api::ChannelSpec::flat(4.0);
  spec.noise_rms_v = 0.001;
  EXPECT_TRUE(Linter().lint(spec).clean());
}

TEST(LintRules, CouplingMatrixAsymmetry) {
  api::BusSpec bus = clean_bus(2);
  bus.coupling = {{0.0, 0.05}, {0.0, 0.0}};
  const LintReport report = Linter().lint(bus);
  EXPECT_EQ(report.kind, "bus");
  EXPECT_EQ(report.subject, "lintbus");
  expect_finding(report, "coupling-matrix-asymmetry", "$.coupling[1][0]",
                 Severity::kWarning);

  // Mirroring the off-diagonal terms silences it.
  bus.coupling[1][0] = 0.05;
  EXPECT_TRUE(Linter().lint(bus).clean());

  // next_coupling is scanned under its own anchor.
  bus.next_coupling = {{0.0, 0.01}, {0.02, 0.0}};
  expect_finding(Linter().lint(bus), "coupling-matrix-asymmetry",
                 "$.next_coupling[1][0]", Severity::kWarning);
}

TEST(LintRules, SelfCoupling) {
  api::BusSpec bus = clean_bus(2);
  bus.coupling = {{0.1, 0.0}, {0.0, 0.0}};
  expect_finding(Linter().lint(bus), "self-coupling", "$.coupling[0][0]",
                 Severity::kWarning);
  bus.coupling[0][0] = 0.0;
  bus.next_coupling = {{0.0, 0.0}, {0.0, 0.02}};
  expect_finding(Linter().lint(bus), "self-coupling", "$.next_coupling[1][1]",
                 Severity::kWarning);
}

TEST(LintRules, LaneOverridesSuppressBaseFindings) {
  api::BusSpec bus = clean_bus(2);
  bus.base.analysis = "both";
  bus.base.payload_bits = 2048;
  bus.base.chunk_bits = 2048;
  expect_finding(Linter().lint(bus), "underpowered-cross-check",
                 "$.base.payload_bits", Severity::kWarning);
  // Once EVERY lane overrides the member, the base value no longer
  // decides what any lane sees — the finding is suppressed.
  bus.overrides = {
      Json::object({{"payload_bits", Json(std::uint64_t{1} << 20)}}),
      Json::object({{"payload_bits", Json(std::uint64_t{1} << 20)}}),
  };
  expect_no_finding(Linter().lint(bus), "underpowered-cross-check");
  // A partial override (one lane still inherits the base) keeps it.
  bus.overrides[1] = Json::object({});
  expect_finding(Linter().lint(bus), "underpowered-cross-check",
                 "$.base.payload_bits", Severity::kWarning);
}

// ---- Structural estimates --------------------------------------------

TEST(LintEstimates, IsiCursors) {
  EXPECT_EQ(lint::estimated_isi_cursors(api::ChannelSpec::flat(34.0), 2e9, 16),
            0);
  EXPECT_EQ(
      lint::estimated_isi_cursors(api::ChannelSpec::fir({1.0}), 2e9, 16), 0);
  EXPECT_EQ(lint::estimated_isi_cursors(
                api::ChannelSpec::fir(std::vector<double>(5, 0.2)), 2e9, 16),
            4);
  // Half-rate taps: 5 taps span two UIs.
  EXPECT_EQ(lint::estimated_isi_cursors(
                api::ChannelSpec::fir(std::vector<double>(5, 0.2), 8), 2e9, 16),
            2);
  // Composite memory adds across stages.
  const auto cascade = api::ChannelSpec::cascade(
      {api::ChannelSpec::fir(std::vector<double>(5, 0.2)),
       api::ChannelSpec::fir(std::vector<double>(3, 0.33))});
  EXPECT_EQ(lint::estimated_isi_cursors(cascade, 2e9, 16), 6);
  // A pole well above Nyquist leaves under one UI of memory.
  EXPECT_LE(lint::estimated_isi_cursors(api::ChannelSpec::rc(20e9), 2e9, 16),
            1);
}

TEST(LintEstimates, DcLoss) {
  EXPECT_DOUBLE_EQ(lint::estimated_dc_loss_db(api::ChannelSpec::flat(34.0)),
                   34.0);
  EXPECT_NEAR(lint::estimated_dc_loss_db(api::ChannelSpec::fir({0.5})), 6.02,
              0.01);
  // A dc-null FIR reads as effectively infinite loss.
  EXPECT_GT(lint::estimated_dc_loss_db(api::ChannelSpec::fir({0.5, -0.5})),
            100.0);
  const auto cascade = api::ChannelSpec::cascade(
      {api::ChannelSpec::flat(10.0), api::ChannelSpec::rc(2.5e9, 4.0)});
  EXPECT_DOUBLE_EQ(lint::estimated_dc_loss_db(cascade), 14.0);
}

// ---- Report serialization --------------------------------------------

TEST(LintReportJson, RoundTripIsFixedPoint) {
  api::LinkSpec spec;
  spec.analysis = "both";
  spec.payload_bits = 2048;
  spec.chunk_bits = 8192;  // also trips chunk-exceeds-payload
  const LintReport report = Linter().lint(spec);
  ASSERT_GE(report.findings.size(), 2u);
  const std::string once = lint::to_json(report).dump(2);
  const LintReport reparsed =
      lint::lint_report_from_json(Json::parse(once));
  EXPECT_EQ(lint::to_json(reparsed).dump(2), once);
  EXPECT_EQ(reparsed.findings.size(), report.findings.size());
  EXPECT_EQ(reparsed.count(Severity::kWarning),
            report.count(Severity::kWarning));
}

TEST(LintReportJson, StrictParseRejectsDriftedCounts) {
  Json j = lint::to_json(Linter().lint(api::LinkSpec{}));
  Json counts = *j.find("counts");
  counts.set("warning", std::uint64_t{3});
  j.set("counts", std::move(counts));
  try {
    (void)lint::lint_report_from_json(j);
    FAIL() << "drifted counts must not parse";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.counts.warning"),
              std::string::npos)
        << e.what();
  }
}

// Byte-pins the lint_demo.json report, same contract as the golden
// RunReports: any drift in rule wording, ordering, severity or JSON
// rendering fails here with the full diff.  Regenerate intentionally:
//   UPDATE_GOLDEN=1 ./build/lint_test
TEST(LintReportJson, LintDemoReportMatchesGolden) {
  const fs::path specs = fs::path(SERDES_SOURCE_DIR) / "examples" / "specs";
  const fs::path golden =
      fs::path(SERDES_SOURCE_DIR) / "tests" / "golden" / "lint_demo_lint.json";
  const api::LinkSpec spec = api::link_spec_from_json(
      Json::parse(read_file(specs / "lint_demo.json")));
  const std::string actual = lint::to_json(Linter().lint(spec)).dump(2) + "\n";
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << golden << ": write failed";
    GTEST_SKIP() << "golden regenerated";
  }
  EXPECT_EQ(actual, read_file(golden));
}

TEST(LintReportJson, StrictParseRejectsUnknownFields) {
  Json j = lint::to_json(Linter().lint(api::LinkSpec{}));
  j.set("extra", true);
  EXPECT_THROW((void)lint::lint_report_from_json(j), util::JsonError);
}

}  // namespace
}  // namespace serdes
