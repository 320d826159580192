// Bus subsystem contracts (tier1):
//
//  1. Zero-coupling byte-identity — a BusSpec with no (or all-zero)
//     coupling matrices must produce per-lane RunReports BYTE-identical
//     to N independently stamped LinkSpecs run through run_batch, for
//     every built-in channel kind, at lane counts {1, 3, 8} and thread
//     counts {1, 8}.  Identity is compared on to_json(report).dump(), so
//     every field participates.
//  2. Coupled buses are deterministic across thread counts and keep the
//     run_batch seed derivation (toggling coupling never reshuffles lane
//     noise), and a 4-lane PAM4 + FEXT bus in "both" mode keeps the
//     MC-vs-stat cross-check band per lane.
//  3. modulation / BusSpec JSON round-trips, validation diagnostics
//     (did-you-mean included), and the schema_version absent-means-1
//     contract for RunReport / BusReport / LintReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/bus_spec.h"
#include "api/link_builder.h"
#include "api/link_spec.h"
#include "api/simulator.h"
#include "api/spec_json.h"
#include "lint/lint.h"
#include "util/json.h"
#include "util/units.h"

namespace serdes::api {
namespace {

/// Compact but complete NRZ lane: two chunks, FFE + CTLE + both jitter
/// terms + ppm offset + lane_batch, so the zero-coupling identity pin
/// also covers the lane-tiled grouping inside run_bus.
LinkSpec bus_base(const ChannelSpec& channel) {
  return LinkBuilder()
      .name("ignored")  // run_bus derives lane names from the bus name
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
}

std::vector<ChannelSpec> builtin_channels() {
  return {
      ChannelSpec::flat(34.0),
      ChannelSpec::rc(2.5e9, 6.0),
      ChannelSpec::lossy_line(6.0, 18.0, 14.0),
      ChannelSpec::fir({0.6, 0.25, 0.1}),
      ChannelSpec::cascade(
          {ChannelSpec::flat(20.0), ChannelSpec::fir({0.7, 0.2})}),
  };
}

/// Stamps the independent-lane reference by hand — NOT via expand() —
/// so the pin compares run_bus against the documented contract ("lane i
/// runs as <name>/lane<i> with the base spec") rather than against the
/// implementation's own helper.
std::vector<LinkSpec> manual_lanes(const BusSpec& bus) {
  std::vector<LinkSpec> specs;
  specs.reserve(static_cast<std::size_t>(bus.lanes));
  for (int i = 0; i < bus.lanes; ++i) {
    LinkSpec spec = bus.base;
    spec.name = bus.name + "/lane" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<std::vector<double>> zero_matrix(int n) {
  return std::vector<std::vector<double>>(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
}

TEST(Bus, ZeroCouplingByteIdenticalToIndependentLanes) {
  const Simulator sim;
  for (const ChannelSpec& channel : builtin_channels()) {
    for (const int lanes : {1, 3, 8}) {
      BusSpec bus;
      bus.name = "zbus";
      bus.lanes = lanes;
      bus.base = bus_base(channel);
      ASSERT_EQ(bus.validate(), "");
      ASSERT_FALSE(bus.has_coupling());

      std::vector<std::string> reference;
      for (const RunReport& report : sim.run_batch(manual_lanes(bus), 1)) {
        reference.push_back(to_json(report).dump());
      }

      for (const int threads : {1, 8}) {
        const BusReport report = sim.run_bus(bus, threads);
        EXPECT_EQ(report.name, "zbus");
        ASSERT_EQ(report.lanes.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(to_json(report.lanes[i]).dump(), reference[i])
              << "channel " << channel.kind << ", " << lanes << " lanes, "
              << threads << " threads, lane " << i;
        }
      }
    }
  }
}

TEST(Bus, ExplicitZeroMatricesStayOnTheBatchedPath) {
  // All-zero matrices are the same contract as absent ones: the bus
  // routes through run_batch and the reports stay byte-identical.
  const Simulator sim;
  BusSpec bus;
  bus.name = "zbus";
  bus.lanes = 3;
  bus.base = bus_base(ChannelSpec::flat(34.0));

  const BusReport absent = sim.run_bus(bus, 1);

  bus.coupling = zero_matrix(3);
  bus.next_coupling = zero_matrix(3);
  ASSERT_EQ(bus.validate(), "");
  EXPECT_FALSE(bus.has_coupling());
  const BusReport zeroed = sim.run_bus(bus, 8);

  ASSERT_EQ(zeroed.lanes.size(), absent.lanes.size());
  for (std::size_t i = 0; i < absent.lanes.size(); ++i) {
    EXPECT_EQ(to_json(zeroed.lanes[i]).dump(), to_json(absent.lanes[i]).dump())
        << "lane " << i;
  }
}

/// 4-lane PAM4 bus with tri-diagonal FEXT at a clean operating point
/// (flat 4 dB, 5 mV noise) — verified aligned and cross-check-consistent.
BusSpec pam4_fext_bus(std::uint64_t payload_bits = 32768) {
  BusSpec bus;
  bus.name = "xbus";
  bus.lanes = 4;
  bus.base = LinkBuilder()
                 .name("ignored")
                 .channel(ChannelSpec::flat(4.0))
                 .modulation("pam4")
                 .payload_bits(payload_bits)
                 .chunk_bits(payload_bits)
                 .preamble_bits(256)
                 .noise_rms(0.005)
                 .analysis("both")
                 .build_spec();
  bus.coupling = zero_matrix(4);
  for (int v = 0; v < 4; ++v) {
    for (const int a : {v - 1, v + 1}) {
      if (a >= 0 && a < 4) {
        bus.coupling[static_cast<std::size_t>(v)][static_cast<std::size_t>(a)] =
            0.03;
      }
    }
  }
  return bus;
}

TEST(Bus, CoupledPam4BusDeterministicAcrossThreadCounts) {
  const Simulator sim;
  const BusSpec bus = pam4_fext_bus();
  ASSERT_EQ(bus.validate(), "");
  ASSERT_TRUE(bus.has_coupling());

  const BusReport one = sim.run_bus(bus, 1);
  const BusReport eight = sim.run_bus(bus, 8);
  EXPECT_EQ(to_json(one).dump(), to_json(eight).dump());

  ASSERT_EQ(one.lanes.size(), 4u);
  for (std::size_t i = 0; i < one.lanes.size(); ++i) {
    const RunReport& lane = one.lanes[i];
    EXPECT_EQ(lane.spec.name, "xbus/lane" + std::to_string(i));
    EXPECT_TRUE(lane.aligned) << "lane " << i;
    ASSERT_TRUE(lane.stat.has_value()) << "lane " << i;
    EXPECT_TRUE(lane.stat->cross_checked) << "lane " << i;
    EXPECT_TRUE(lane.stat->consistent)
        << "lane " << i << ": mc_ber " << lane.stat->mc_ber << " outside ["
        << lane.stat->band_low << ", " << lane.stat->band_high << "]";
  }
  // Two aggressors beat one: the middle lanes' analytical BER floor sits
  // above the edge lanes'.
  EXPECT_GT(one.lanes[1].stat->min_ber, one.lanes[0].stat->min_ber);
  EXPECT_GT(one.lanes[2].stat->min_ber, one.lanes[3].stat->min_ber);
}

TEST(Bus, CouplingToggleKeepsLaneSeedDerivation) {
  // Crosstalk changes what a victim sees, never which noise stream a
  // lane draws: the derived per-lane seeds must match the zero-coupling
  // run exactly.
  const Simulator sim;
  BusSpec coupled = pam4_fext_bus(4096);
  BusSpec uncoupled = coupled;
  uncoupled.coupling.clear();

  const BusReport with = sim.run_bus(coupled, 1);
  const BusReport without = sim.run_bus(uncoupled, 1);
  ASSERT_EQ(with.lanes.size(), without.lanes.size());
  for (std::size_t i = 0; i < with.lanes.size(); ++i) {
    EXPECT_EQ(with.lanes[i].spec.seed, without.lanes[i].spec.seed)
        << "lane " << i;
    EXPECT_EQ(with.lanes[i].spec.seed,
              Simulator::derive_lane_seed(coupled.base.seed, i));
  }
}

// ---- modulation field ------------------------------------------------------

TEST(ModulationField, DefaultsToNrzAndRoundTrips) {
  const LinkSpec nrz = LinkBuilder().name("m").build_spec();
  EXPECT_EQ(nrz.modulation, "nrz");
  const util::Json j = to_json(nrz);
  ASSERT_NE(j.find("modulation"), nullptr);
  EXPECT_EQ(j.find("modulation")->as_string(), "nrz");

  const LinkSpec pam4 =
      LinkBuilder().name("m").modulation("pam4").build_spec();
  EXPECT_EQ(pam4.first_issue().field, "");
  const LinkSpec reparsed = link_spec_from_json(to_json(pam4));
  EXPECT_EQ(reparsed.modulation, "pam4");
  EXPECT_EQ(to_json(reparsed).dump(), to_json(pam4).dump());
}

TEST(ModulationField, ValidationDiagnostics) {
  LinkSpec spec = LinkBuilder().name("m").build_spec();
  spec.modulation = "qam16";
  EXPECT_EQ(spec.first_issue().field, "modulation");
  EXPECT_NE(spec.first_issue().message.find("must be one of 'nrz', 'pam4'"),
            std::string::npos)
      << spec.first_issue().message;

  LinkSpec ffe = LinkBuilder().name("m").modulation("pam4").build_spec();
  ffe.tx_ffe_deemphasis = 0.2;
  EXPECT_EQ(ffe.first_issue().field, "tx_ffe_deemphasis");
  EXPECT_NE(ffe.first_issue().message.find("incompatible with pam4"),
            std::string::npos)
      << ffe.first_issue().message;

  LinkSpec odd = LinkBuilder().name("m").modulation("pam4").build_spec();
  odd.preamble_bits = 255;
  EXPECT_EQ(odd.first_issue().field, "preamble_bits");
}

TEST(ModulationField, MisspelledKeyGetsDidYouMean) {
  util::Json j = to_json(LinkBuilder().name("m").build_spec());
  j.set("modulaton", "pam4");
  try {
    (void)link_spec_from_json(j);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'modulation'"),
              std::string::npos)
        << e.what();
  }
}

// ---- BusSpec JSON ----------------------------------------------------------

TEST(BusSpecJson, RoundTripIsAFixedPoint) {
  BusSpec bus;
  bus.name = "rt";
  bus.lanes = 3;
  bus.base = bus_base(ChannelSpec::rc(2.5e9, 6.0));
  bus.overrides = {
      util::Json::object({{"seed", util::Json(std::uint64_t{11})}}),
      util::Json::object({{"noise_rms_v", util::Json(0.002)}}),
      util::Json::object({}),
  };
  bus.coupling = zero_matrix(3);
  bus.coupling[0][1] = 0.05;
  bus.coupling[1][0] = 0.05;
  bus.next_coupling = zero_matrix(3);
  bus.next_coupling[2][1] = 0.01;
  ASSERT_EQ(bus.validate(), "");

  const util::Json j = to_json(bus);
  EXPECT_TRUE(looks_like_bus_spec(j));
  EXPECT_FALSE(looks_like_bus_spec(to_json(bus.base)));
  const BusSpec reparsed = bus_spec_from_json(j);
  EXPECT_EQ(to_json(reparsed).dump(), j.dump());

  const std::vector<LinkSpec> lanes = reparsed.expand();
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0].name, "rt/lane0");
  EXPECT_EQ(lanes[0].seed, 11u);
  EXPECT_EQ(lanes[1].noise_rms_v, 0.002);
  EXPECT_EQ(lanes[2].noise_rms_v, bus.base.noise_rms_v);
}

TEST(BusSpecJson, ValidationDiagnostics) {
  BusSpec bus;
  bus.base = bus_base(ChannelSpec::flat(10.0));

  bus.lanes = 0;
  EXPECT_EQ(bus.validate(), "$.lanes: must be between 1 and 64");
  bus.lanes = 65;
  EXPECT_EQ(bus.validate(), "$.lanes: must be between 1 and 64");

  bus.lanes = 3;
  bus.coupling = zero_matrix(2);
  EXPECT_NE(bus.validate().find("$.coupling"), std::string::npos)
      << bus.validate();
  EXPECT_NE(bus.validate().find("3x3"), std::string::npos) << bus.validate();
  bus.coupling.clear();

  bus.overrides = {util::Json::object({})};
  EXPECT_NE(bus.validate().find("$.overrides"), std::string::npos)
      << bus.validate();
  bus.overrides = {
      util::Json::object({}),
      util::Json::object({{"name", util::Json("hijack")}}),
      util::Json::object({}),
  };
  EXPECT_NE(bus.validate().find("may not be overridden"), std::string::npos)
      << bus.validate();
}

TEST(BusSpecJson, MisspelledKeyGetsDidYouMean) {
  BusSpec bus;
  bus.name = "rt";
  bus.lanes = 2;
  bus.base = bus_base(ChannelSpec::flat(10.0));
  util::Json j = to_json(bus);
  j.set("couplng", util::Json::array());
  try {
    (void)bus_spec_from_json(j);
    FAIL() << "expected util::JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'coupling'"),
              std::string::npos)
        << e.what();
  }
}

// ---- schema_version --------------------------------------------------------

/// Reserializes `j` without its `key` member — the "report written by a
/// version-1 build" fixture.
util::Json without_key(const util::Json& j, const std::string& key) {
  util::Json out = util::Json::object();
  for (const auto& [k, v] : j.as_object()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

TEST(SchemaVersion, AbsentMeansVersionOne) {
  const Simulator sim;
  LinkSpec spec = bus_base(ChannelSpec::flat(10.0));
  spec.name = "sv";
  spec.payload_bits = 256;
  spec.chunk_bits = 256;

  const RunReport run = sim.run(spec);
  // RunReport moved to version 3 (DFE / link-training surface); the
  // bus and lint envelopes themselves are still version 2.
  EXPECT_EQ(run.schema_version, 3);
  const util::Json run_json = to_json(run);
  ASSERT_NE(run_json.find("schema_version"), nullptr);
  EXPECT_EQ(run_json.find("schema_version")->as_int(), 3);
  EXPECT_EQ(run_report_from_json(run_json).schema_version, 3);
  EXPECT_EQ(run_report_from_json(without_key(run_json, "schema_version"))
                .schema_version,
            1);

  BusSpec bus;
  bus.name = "sv";
  bus.lanes = 1;
  bus.base = spec;
  const util::Json bus_json = to_json(sim.run_bus(bus, 1));
  EXPECT_EQ(bus_report_from_json(bus_json).schema_version, 2);
  EXPECT_EQ(bus_report_from_json(without_key(bus_json, "schema_version"))
                .schema_version,
            1);

  const util::Json lint_json = to_json(lint::Linter().lint(spec));
  EXPECT_EQ(lint::lint_report_from_json(lint_json).schema_version, 2);
  EXPECT_EQ(lint::lint_report_from_json(without_key(lint_json,
                                                    "schema_version"))
                .schema_version,
            1);
}

}  // namespace
}  // namespace serdes::api
