#include "api/link_builder.h"

#include <gtest/gtest.h>

#include <limits>

#include "api/channel_factory.h"
#include "api/simulator.h"

namespace serdes::api {
namespace {

TEST(LinkSpec, PaperDefaultIsValid) {
  const LinkSpec spec = LinkSpec::paper_default();
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();
  EXPECT_DOUBLE_EQ(spec.bit_rate_hz, 2e9);
  EXPECT_EQ(spec.channel.kind, "flat");
  EXPECT_DOUBLE_EQ(spec.channel.loss_db, 34.0);
}

TEST(LinkSpec, ValidationCatchesBadFields) {
  LinkSpec spec;
  spec.bit_rate_hz = -1.0;
  EXPECT_FALSE(spec.validate().empty());

  spec = LinkSpec{};
  spec.cdr_oversampling = 1;
  EXPECT_FALSE(spec.validate().empty());

  spec = LinkSpec{};
  spec.channel = ChannelSpec::fir({}, 4);
  EXPECT_FALSE(spec.validate().empty());

  spec = LinkSpec{};
  spec.channel = ChannelSpec::cascade({});
  EXPECT_FALSE(spec.validate().empty());

  spec = LinkSpec{};
  spec.tx_ffe_deemphasis = 1.5;
  EXPECT_FALSE(spec.validate().empty());

  spec = LinkSpec{};
  spec.payload_bits = 0;
  EXPECT_THROW((void)spec.to_link_config(), std::invalid_argument);
}

TEST(LinkSpec, ValidationRejectsNaN) {
  // A NaN fails every ordered compare, so each range check must be
  // written to reject it; a NaN noise_rms_v would otherwise run
  // noise-free and serialize as null.  The conditional fields are probed
  // with their feature switched on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* field;
    void (*poison)(LinkSpec&, double);
  } cases[] = {
      {"bit_rate_hz", [](LinkSpec& s, double v) { s.bit_rate_hz = v; }},
      {"noise_rms_v", [](LinkSpec& s, double v) { s.noise_rms_v = v; }},
      {"noise_reference_bandwidth_hz",
       [](LinkSpec& s, double v) { s.noise_reference_bandwidth_hz = v; }},
      {"random_jitter_s",
       [](LinkSpec& s, double v) { s.random_jitter_s = v; }},
      {"sinusoidal_jitter_s",
       [](LinkSpec& s, double v) { s.sinusoidal_jitter_s = v; }},
      {"sj_freq_ratio",
       [](LinkSpec& s, double v) {
         s.sinusoidal_jitter_s = 5e-12;
         s.sj_freq_ratio = v;
       }},
      {"tx_ffe_deemphasis",
       [](LinkSpec& s, double v) { s.tx_ffe_deemphasis = v; }},
      {"rx_ctle_boost_db",
       [](LinkSpec& s, double v) { s.rx_ctle_boost_db = v; }},
      {"rx_ctle_pole_hz",
       [](LinkSpec& s, double v) {
         s.rx_ctle_boost_db = 6.0;
         s.rx_ctle_pole_hz = v;
       }},
  };
  for (const auto& c : cases) {
    LinkSpec spec;
    c.poison(spec, 0.25);  // feature switches on, field still in range...
    ASSERT_TRUE(spec.validate().empty()) << c.field << ": " << spec.validate();
    c.poison(spec, nan);  // ...until the field itself is NaN
    EXPECT_EQ(spec.first_issue().field, c.field);
  }
}

TEST(LinkSpec, ValidationRejectsValuesTheDatapathCannotRun) {
  // Each value here used to pass validation and then throw from a model
  // constructor at run time, with an error that named no spec field.  It
  // must be rejected up front at its own path, at any composite depth.
  const struct {
    const char* path;
    void (*poison)(LinkSpec&);
  } cases[] = {
      {"tx_ffe_deemphasis", [](LinkSpec& s) { s.tx_ffe_deemphasis = 0.5; }},
      {"tx_ffe_deemphasis", [](LinkSpec& s) { s.tx_ffe_deemphasis = 0.99; }},
      {"channel.loss_db",
       [](LinkSpec& s) { s.channel = ChannelSpec::flat(-1.0); }},
      {"channel.stages[1].stages[0].loss_db",
       [](LinkSpec& s) {
         s.channel = ChannelSpec::cascade(
             {ChannelSpec::rc(3e9),
              ChannelSpec::cascade({ChannelSpec::flat(-3.0)})});
       }},
      {"channel.pole_hz", [](LinkSpec& s) { s.channel = ChannelSpec::rc(0.0); }},
      {"channel.pole_hz",
       [](LinkSpec& s) { s.channel = ChannelSpec::rc(-2e9); }},
      {"channel.stages[0].pole_hz",
       [](LinkSpec& s) {
         s.channel = ChannelSpec::cascade(
             {ChannelSpec::rc(0.0), ChannelSpec::flat(6.0)});
       }},
  };
  for (const auto& c : cases) {
    LinkSpec spec;
    c.poison(spec);
    EXPECT_EQ(spec.first_issue().field, c.path) << spec.validate();
    EXPECT_THROW((void)spec.to_link_config(), std::invalid_argument)
        << c.path;
  }
  // The edges of the accepted ranges still build and run.
  LinkSpec edge;
  edge.tx_ffe_deemphasis = 0.49;
  edge.channel = ChannelSpec::cascade(
      {ChannelSpec::flat(0.0), ChannelSpec::rc(1.0)});
  edge.payload_bits = 256;
  edge.chunk_bits = 256;
  ASSERT_TRUE(edge.validate().empty()) << edge.validate();
  EXPECT_NO_THROW((void)Simulator().run(edge));
}

TEST(LinkBuilder, RoundTripSpecToConfig) {
  // Spec -> link -> config: every knob the builder sets must land in the
  // lowered LinkConfig (and in the link built from it).
  const auto spec = LinkBuilder()
                        .name("roundtrip")
                        .bit_rate(util::gigahertz(1.5))
                        .samples_per_ui(20)
                        .flat_channel(util::decibels(22.0))
                        .noise_rms(0.002)
                        .random_jitter(util::picoseconds(3.0))
                        .sinusoidal_jitter(util::picoseconds(10.0), 0.02)
                        .ppm_offset(50.0)
                        .rx_phase_offset_ui(0.25)
                        .cdr_oversampling(7)
                        .cdr_window(16)
                        .cdr_glitch_filter(2)
                        .cdr_jitter_hysteresis(3)
                        .tx_ffe_deemphasis(0.2)
                        .rx_ctle(util::decibels(4.0), util::megahertz(600.0))
                        .preamble_bits(128)
                        .payload_bits(2000)
                        .seed(99)
                        .capture_waveforms(true)
                        .build_spec();

  const core::LinkConfig cfg = spec.to_link_config();
  EXPECT_DOUBLE_EQ(cfg.bit_rate.value(), 1.5e9);
  EXPECT_EQ(cfg.samples_per_ui, 20);
  EXPECT_DOUBLE_EQ(cfg.channel_noise_rms, 0.002);
  EXPECT_DOUBLE_EQ(cfg.rx_random_jitter.value(), 3e-12);
  EXPECT_DOUBLE_EQ(cfg.rx_sinusoidal_jitter.value(), 10e-12);
  EXPECT_DOUBLE_EQ(cfg.sj_freq_ratio, 0.02);
  EXPECT_DOUBLE_EQ(cfg.ppm_offset, 50.0);
  EXPECT_DOUBLE_EQ(cfg.rx_phase_offset_ui, 0.25);
  EXPECT_EQ(cfg.cdr.oversampling, 7);
  EXPECT_EQ(cfg.cdr.window_uis, 16);
  EXPECT_EQ(cfg.cdr.glitch_filter_radius, 2);
  EXPECT_EQ(cfg.cdr.jitter_hysteresis, 3);
  EXPECT_DOUBLE_EQ(cfg.tx_ffe_deemphasis, 0.2);
  EXPECT_DOUBLE_EQ(cfg.rx_ctle_boost.value(), 4.0);
  EXPECT_DOUBLE_EQ(cfg.rx_ctle_pole.value(), 600e6);
  EXPECT_EQ(cfg.framing.preamble_bits, 128);
  EXPECT_EQ(cfg.noise_seed, 99u);
  EXPECT_TRUE(cfg.capture_waveforms);

  const core::SerDesLink link = LinkBuilder(spec).build_link();
  EXPECT_DOUBLE_EQ(link.config().bit_rate.value(), 1.5e9);
  EXPECT_EQ(link.config().cdr.oversampling, 7);
  // The factory-built channel matches the spec: 22 dB flat loss.
  EXPECT_NEAR(link.channel().loss_at(util::gigahertz(1.0)).value(), 22.0,
              1e-9);
}

TEST(LinkBuilder, PrbsOrderReachesDirectLinks) {
  // .prbs() must be honored on both execution paths: Simulator::run and a
  // directly-driven build_link() (run_prbs defaults to the config order).
  core::SerDesLink link = LinkBuilder()
                              .prbs(util::PrbsOrder::kPrbs7)
                              .flat_channel(util::decibels(10.0))
                              .build_link();
  EXPECT_EQ(link.config().prbs_order, util::PrbsOrder::kPrbs7);
  const auto with_cfg_order = link.run_prbs(512);
  const auto with_explicit = link.run_prbs(512, util::PrbsOrder::kPrbs7);
  // Error-free at 10 dB, so the recovered payloads show the pattern: both
  // runs carry the same PRBS-7 stream (period 127), which PRBS-31 lacks.
  ASSERT_TRUE(with_cfg_order.error_free());
  EXPECT_EQ(with_cfg_order.rx.payload, with_explicit.rx.payload);
  ASSERT_GE(with_cfg_order.rx.payload.size(), 254u);
  for (int i = 0; i < 127; ++i) {
    EXPECT_EQ(with_cfg_order.rx.payload[i],
              with_cfg_order.rx.payload[i + 127]);
  }
}

TEST(LinkBuilder, DefaultsAreThePaperOperatingPoint) {
  const core::LinkConfig from_builder = LinkBuilder().build_config();
  const core::LinkConfig paper = core::LinkConfig::paper_default();
  EXPECT_DOUBLE_EQ(from_builder.bit_rate.value(), paper.bit_rate.value());
  EXPECT_EQ(from_builder.samples_per_ui, paper.samples_per_ui);
  EXPECT_EQ(from_builder.cdr.oversampling, paper.cdr.oversampling);
  EXPECT_DOUBLE_EQ(from_builder.channel_noise_rms, paper.channel_noise_rms);
  EXPECT_EQ(from_builder.framing.preamble_bits, paper.framing.preamble_bits);
}

TEST(LinkBuilder, InvalidSpecThrowsOnBuild) {
  EXPECT_THROW((void)LinkBuilder().cdr_oversampling(0).build_spec(),
               std::invalid_argument);
  EXPECT_THROW((void)LinkBuilder().samples_per_ui(1).build_link(),
               std::invalid_argument);
}

TEST(ChannelFactory, BuildsAllFiveKinds) {
  const core::LinkConfig cfg = core::LinkConfig::paper_default();
  auto& factory = ChannelFactory::instance();

  const auto flat = factory.create(ChannelSpec::flat(20.0), cfg);
  EXPECT_NEAR(flat->loss_at(util::gigahertz(1.0)).value(), 20.0, 1e-9);

  const auto rc = factory.create(ChannelSpec::rc(2.5e9, 3.0), cfg);
  EXPECT_GT(rc->loss_at(util::gigahertz(2.0)).value(), 3.0);

  const auto line =
      factory.create(ChannelSpec::lossy_line(2.0, 6.0, 3.0), cfg);
  EXPECT_NEAR(line->loss_at(util::gigahertz(1.0)).value(), 11.0, 0.5);

  const auto fir = factory.create(ChannelSpec::fir({0.08, 0.56, 0.16}), cfg);
  EXPECT_NEAR(fir->attenuation_at(util::Hertz{0.0}), 0.8, 1e-12);

  const auto cascade = factory.create(
      ChannelSpec::cascade({ChannelSpec::flat(10.0), ChannelSpec::flat(5.0)}),
      cfg);
  EXPECT_NEAR(cascade->loss_at(util::gigahertz(1.0)).value(), 15.0, 1e-9);
}

TEST(ChannelFactory, UnknownKindThrowsWithRegisteredKindsListed) {
  const core::LinkConfig cfg = core::LinkConfig::paper_default();
  ChannelSpec bogus;
  bogus.kind = "s_parameter";
  try {
    (void)ChannelFactory::instance().create(bogus, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s_parameter"), std::string::npos) << what;
    EXPECT_NE(what.find("flat"), std::string::npos) << what;
    EXPECT_NE(what.find("lossy_line"), std::string::npos) << what;
  }
}

TEST(ChannelFactory, UnknownKindMessageListsEveryRegisteredKind) {
  const core::LinkConfig cfg = core::LinkConfig::paper_default();
  ChannelSpec bogus;
  bogus.kind = "definitely_not_a_channel";
  try {
    (void)ChannelFactory::instance().create(bogus, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Every registered kind must appear, sorted, so callers can self-serve.
    for (const auto& kind : ChannelFactory::instance().kinds()) {
      EXPECT_NE(what.find(kind), std::string::npos)
          << "'" << kind << "' missing from: " << what;
    }
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
  }
}

TEST(ChannelFactory, UnknownKindSuggestsNearestMatch) {
  const core::LinkConfig cfg = core::LinkConfig::paper_default();
  ChannelSpec typo;
  typo.kind = "lossy_lien";
  try {
    (void)ChannelFactory::instance().create(typo, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'lossy_line'?"), std::string::npos)
        << what;
  }
}

TEST(ChannelFactory, CustomKindRegistersAndResolves) {
  auto& factory = ChannelFactory::instance();
  // A custom kind can delegate to existing kinds (or construct its own
  // channel::Channel subclass).
  factory.register_kind(
      "test_double_flat",
      [&factory](const ChannelSpec& spec, const core::LinkConfig& cfg) {
        return factory.create(ChannelSpec::flat(2.0 * spec.loss_db), cfg);
      });
  EXPECT_TRUE(factory.knows("test_double_flat"));
  ChannelSpec spec;
  spec.kind = "test_double_flat";
  spec.loss_db = 7.0;
  const auto ch =
      factory.create(spec, core::LinkConfig::paper_default());
  EXPECT_NEAR(ch->loss_at(util::gigahertz(1.0)).value(), 14.0, 1e-9);
}

}  // namespace
}  // namespace serdes::api
