// Cross-module integration: full link over dispersive channels, PCIe-class
// rates, eye/BER consistency, and the digital flow driven by link config.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "api/api.h"
#include "channel/channel.h"
#include "core/ber.h"
#include "core/eye.h"
#include "core/link.h"
#include "core/power_model.h"
#include "flow/gds.h"
#include "flow/place.h"
#include "flow/rtlgen.h"
#include "flow/sta.h"

namespace serdes {
namespace {

TEST(Integration, LinkOverLossyLine) {
  core::SerDesLink link =
      api::LinkBuilder()
          .channel(api::ChannelSpec::lossy_line(2.0, 6.0, 3.0))
          .build_link();
  const auto r = link.run_prbs(3000);
  EXPECT_TRUE(r.error_free());
}

TEST(Integration, LinkOverCompositeChannel) {
  core::SerDesLink link =
      api::LinkBuilder()
          .channel(api::ChannelSpec::cascade(
              {api::ChannelSpec::rc(2.5e9, 3.0), api::ChannelSpec::flat(20.0)}))
          .build_link();
  const auto r = link.run_prbs(3000);
  EXPECT_TRUE(r.error_free());
}

TEST(Integration, CdrKeepsRecoveringAfterNegativePhaseSteps) {
  // Regression: on this FFE link the CDR takes a negative phase step while
  // a bit decision is due.  Recovery used to stop there, the run still
  // reported aligned, and the rest of each chunk was charged as a
  // truncated tail (8126 of 8188 bits in error against a clean stat eye).
  api::LinkSpec spec;
  spec.channel = api::ChannelSpec::lossy_line(6.0, 4.0, 2.0);
  spec.tx_ffe_deemphasis = 0.3;
  spec.noise_rms_v = 0.001;
  spec.seed = 77;
  spec.payload_bits = 8192;
  spec.chunk_bits = 4096;
  spec.analysis = "both";
  const api::RunReport r = api::Simulator().run(spec);
  EXPECT_TRUE(r.aligned);
  EXPECT_EQ(r.bits, spec.payload_bits);
  EXPECT_EQ(r.errors, 0u);
  ASSERT_TRUE(r.stat.has_value());
  EXPECT_TRUE(r.stat->cross_checked);
  EXPECT_TRUE(r.stat->consistent);
}

TEST(Integration, PcieClassRatesRunClean) {
  // Discussion section: PCIe 1.x-4.0 lanes need 250 Mbps - 2 Gbps.  The
  // whole rate sweep runs as one multi-lane batch.
  std::vector<api::LinkSpec> specs;
  for (double rate_mbps : {250.0, 500.0, 1000.0, 2000.0}) {
    specs.push_back(api::LinkBuilder()
                        .name(std::to_string(rate_mbps) + " Mbps")
                        .bit_rate(util::megahertz(rate_mbps))
                        .flat_channel(util::decibels(30.0))
                        .payload_bits(2000)
                        .build_spec());
  }
  for (const auto& r : api::Simulator().run_batch(specs, 2)) {
    EXPECT_TRUE(r.error_free()) << r.name();
  }
}

TEST(Integration, ChipletShortReachLowLoss) {
  // EMIB-style: 1-5 dB loss, 1-4 GHz; at 3 GHz the link keeps working in
  // the benign channel even beyond the paper's 2 GHz headline.
  core::SerDesLink link = api::LinkBuilder()
                              .bit_rate(util::gigahertz(3.0))
                              .flat_channel(util::decibels(3.0))
                              .build_link();
  const auto r = link.run_prbs(2000);
  EXPECT_TRUE(r.aligned);
  EXPECT_LT(r.ber, 1e-2);
}

TEST(Integration, EyeAndBerAgree) {
  // If the restored eye is open at the decision threshold, the measured
  // BER must be zero over the same run, and vice versa at huge loss.
  const api::Simulator sim;
  {
    const auto r = sim.run(api::LinkBuilder()
                               .flat_channel(util::decibels(28.0))
                               .payload_bits(2000)
                               .build_spec());
    EXPECT_TRUE(r.eye.open());
    EXPECT_EQ(r.errors, 0u);
  }
  {
    const auto r = sim.run(api::LinkBuilder()
                               .flat_channel(util::decibels(68.0))
                               .payload_bits(2000)
                               .build_spec());
    EXPECT_FALSE(r.eye.open() && r.errors == 0 && r.aligned);
  }
}

TEST(Integration, CdrScanKnobsAffectLink) {
  // Glitch correction off vs on under heavy noise: on must not be worse.
  const api::LinkBuilder stressed = api::LinkBuilder()
                                        .noise_rms(0.004)
                                        .flat_channel(util::decibels(40.0));
  core::SerDesLink link_scan = stressed.build_link();
  core::SerDesLink link_plain =
      api::LinkBuilder(stressed.spec()).cdr_glitch_filter(0).build_link();
  const auto r_scan = link_scan.run_prbs(4000);
  const auto r_plain = link_plain.run_prbs(4000);
  EXPECT_LE(r_scan.bit_errors, r_plain.bit_errors + 5);
}

TEST(Integration, FlowProducesLayoutForLinkConfig) {
  // Drive the digital flow end-to-end from the link configuration the same
  // way bench_fig11 does: generate -> place -> floorplan -> GDS/SVG.
  flow::SerdesRtlConfig rtl;
  rtl.lanes = 2;
  rtl.bits_per_lane = 8;
  rtl.fifo_depth = 2;
  flow::Netlist ser = flow::generate_serializer(rtl);
  flow::Netlist des = flow::generate_deserializer(rtl);
  const auto pr_ser = flow::place(ser);
  const auto pr_des = flow::place(des);

  std::vector<flow::FloorplanBlock> blocks(2);
  blocks[0] = {"serializer", pr_ser.die_area};
  blocks[1] = {"deserializer", pr_des.die_area};
  const auto plan = flow::floorplan(blocks);
  EXPECT_GT(plan.die_area().value(), pr_ser.die_area.value());

  const std::string gds_path = ::testing::TempDir() + "/serdes_int.gds";
  flow::GdsWriter::write(gds_path, "serdes",
                         flow::rects_from_floorplan(plan));
  std::ifstream check(gds_path, std::ios::binary);
  EXPECT_TRUE(check.good());
  std::remove(gds_path.c_str());
}

TEST(Integration, TimingClosesAtPaperClockForAllBlocks) {
  flow::SerdesRtlConfig rtl;
  rtl.lanes = 2;
  rtl.bits_per_lane = 8;
  rtl.fifo_depth = 2;
  rtl.cdr_window_uis = 8;
  // Serializer and deserializer datapaths live in the 2 GHz bit-clock
  // domain (500 ps).  The CDR's samplers are clocked per-phase at the bit
  // rate but its vote/decision logic runs demultiplexed at half rate, so
  // its netlist is checked at 1 ns.
  struct Target {
    flow::Netlist netlist;
    double period_ps;
  };
  std::vector<Target> targets;
  targets.push_back({flow::generate_serializer(rtl), 500.0});
  targets.push_back({flow::generate_deserializer(rtl), 500.0});
  targets.push_back({flow::generate_cdr(rtl), 1000.0});
  for (auto& t : targets) {
    flow::place(t.netlist);
    flow::StaEngine sta(t.netlist);
    const auto report = sta.analyze(util::picoseconds(t.period_ps));
    EXPECT_TRUE(report.met())
        << t.netlist.module_name() << ": "
        << flow::format_timing_report(t.netlist, report);
  }
}

TEST(Integration, BudgetMatchesStandaloneFlowNumbers) {
  // The core power model must agree with directly driving the flow.
  core::BudgetModelConfig model;
  model.rtl.lanes = 2;
  model.rtl.bits_per_lane = 8;
  model.rtl.fifo_depth = 2;
  model.rtl.cdr_window_uis = 8;
  const auto budget =
      core::compute_link_budget(core::LinkConfig::paper_default(), model);
  EXPECT_GT(budget.serializer_power.value(), 0.0);
  EXPECT_GT(budget.total_area().value(), 0.0);
}

}  // namespace
}  // namespace serdes
