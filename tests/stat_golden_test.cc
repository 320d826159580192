// Golden-report regression tier: every checked-in scenario spec under
// examples/specs/ has its full serialized report pinned byte-for-byte in
// tests/golden/.  Reports are deterministic by construction (fixed seeds,
// fixed field order, shortest-round-trip doubles, thread-count-invariant
// aggregation), so any drift in simulator arithmetic, serialization or
// spec defaults fails here first — with a JSON-path diff naming exactly
// which members moved, and the actual report written to golden_actual/
// (uploaded as a CI artifact on failure).
//
// Regenerate after an intentional change with:
//   UPDATE_GOLDEN=1 ./build/stat_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "api/bus_spec.h"
#include "api/link_builder.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/fs.h"
#include "util/json.h"

#ifndef SERDES_SOURCE_DIR
#error "stat_golden_test needs SERDES_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace serdes {
namespace {

namespace fs = std::filesystem;

fs::path source_dir() { return fs::path(SERDES_SOURCE_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << path << ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  // Atomic replace: a golden (or golden_actual artifact) is either the
  // complete old bytes or the complete new bytes, even if the test
  // binary dies mid-write.
  fs::create_directories(path.parent_path());
  try {
    util::atomic_write_file(path.string(), text);
  } catch (const util::FileError& e) {
    FAIL() << path << ": write failed — " << e.what();
  }
}

/// Runs one LinkSpec file through the default Simulator and renders the
/// RunReport exactly as `serdes_cli run` would.
std::string render_link_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const api::LinkSpec spec = api::link_spec_from_json(doc);
  EXPECT_EQ(api::validate_spec_with_paths(spec), "");
  const api::RunReport report = api::Simulator().run(spec);
  return api::to_json(report).dump(2) + "\n";
}

/// Runs one BusSpec file (fixed thread count — lanes are independent
/// work items, so the report is byte-identical for any) and renders the
/// BusReport exactly as `serdes_cli run` would.
std::string render_bus_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const api::BusSpec bus = api::bus_spec_from_json(doc);
  EXPECT_EQ(bus.validate(), "");
  const api::BusReport report = api::Simulator().run_bus(bus, 2);
  return api::to_json(report).dump(2) + "\n";
}

/// Runs one SweepSpec file (whole grid, fixed thread count — reports are
/// byte-identical for any) and renders the SweepReport.
std::string render_sweep_report(const fs::path& spec_path) {
  const util::Json doc = util::Json::parse(read_file(spec_path));
  const sweep::SweepSpec spec = sweep::SweepSpec::from_json(doc);
  sweep::SweepRunner::Options options;
  options.n_threads = 2;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(spec);
  return sweep::to_json(report).dump(2) + "\n";
}

/// Byte-compares `actual` against tests/golden/<name>.json.  On mismatch,
/// writes the actual bytes to golden_actual/<name>.json (CI uploads the
/// directory as an artifact) and fails with a JSON-path diff.
void check_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = source_dir() / "tests" / "golden" / (name + ".json");
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    write_file(golden, actual);
    GTEST_SKIP() << "regenerated " << golden;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing — run UPDATE_GOLDEN=1 " << name;
  const std::string expected = read_file(golden);
  if (expected == actual) return;

  const fs::path actual_path = fs::path("golden_actual") / (name + ".json");
  write_file(actual_path, actual);
  std::ostringstream message;
  message << "golden report mismatch for '" << name << "' (actual written to "
          << actual_path << "):";
  for (const std::string& finding :
       util::json_diff(util::Json::parse(expected), util::Json::parse(actual))) {
    message << "\n  " << finding;
  }
  FAIL() << message.str();
}

TEST(StatGolden, PaperDefaultRunReport) {
  check_golden("paper_default", render_link_report(source_dir() / "examples" /
                                                   "specs" /
                                                   "paper_default.json"));
}

TEST(StatGolden, StatCiRunReport) {
  // The "both" scenario: MC datapath plus stat engine plus cross-check —
  // one report pins all three.
  check_golden("stat_ci", render_link_report(source_dir() / "examples" /
                                             "specs" / "stat_ci.json"));
}

TEST(StatGolden, TrainedCiRunReport) {
  // The eq "trained" scenario: SS-LMS preamble training, the converged
  // EQ in RunReport.training, and the stat engine's DFE model (residual
  // cancellation + burst factor) all pin in one report.
  check_golden("trained_ci", render_link_report(source_dir() / "examples" /
                                                "specs" / "trained_ci.json"));
}

TEST(StatGolden, BusCiReport) {
  // PAM4 over a 4-lane FEXT/NEXT bus in "both" mode: pins the PAM4
  // launch map, slicer calibration, tri-threshold sampler/CDR and the
  // crosstalk injection paths, plus the bus stat engine.
  check_golden("bus_ci", render_bus_report(source_dir() / "examples" /
                                           "specs" / "bus_ci.json"));
}

TEST(StatGolden, Pam4FixedDfeRunReport) {
  // PAM4 with live fixed DFE taps: the tri-threshold feedback comparator
  // and its symbol weights {-1, -1/3, +1/3, +1} move decisions here,
  // which the all-zero-tap identity tests cannot see.
  const api::LinkSpec spec = api::LinkBuilder()
                                 .name("pam4_dfe")
                                 .modulation("pam4")
                                 .channel(api::ChannelSpec::fir({0.7, 0.25}))
                                 .noise_rms(0.01)
                                 .dfe({0.22, 0.01})
                                 .payload_bits(16384)
                                 .chunk_bits(8192)
                                 .build_spec();
  ASSERT_EQ(api::validate_spec_with_paths(spec), "");
  check_golden("pam4_dfe",
               api::to_json(api::Simulator().run(spec)).dump(2) + "\n");
}

TEST(StatGolden, LossSweepReport) {
  check_golden("loss_sweep", render_sweep_report(source_dir() / "examples" /
                                                 "specs" / "loss_sweep.json"));
}

TEST(SlowDeep, CiMatrixSweepReport) {
  // 64 scenarios; nightly tier.  Byte-compares the full aggregated grid.
  check_golden("ci_matrix", render_sweep_report(source_dir() / "examples" /
                                                "specs" / "ci_matrix.json"));
}

TEST(StatGolden, JsonDiffNamesThePathsThatMoved) {
  const util::Json a = util::Json::parse(
      R"({"x": 1, "nested": {"y": [1, 2, 3]}, "only_a": true})");
  const util::Json b = util::Json::parse(
      R"({"x": 1, "nested": {"y": [1, 9, 3]}, "only_b": "s"})");
  const auto findings = util::json_diff(a, b);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0], "$.nested.y[1]: expected 2, got 9");
  EXPECT_EQ(findings[1], "$.only_a: missing (expected true)");
  EXPECT_EQ(findings[2], "$.only_b: unexpected (got \"s\")");
}

}  // namespace
}  // namespace serdes
