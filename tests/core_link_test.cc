#include "core/link.h"

#include <gtest/gtest.h>

#include <memory>

#include "api/channel_factory.h"
#include "channel/channel.h"
#include "core/ber.h"
#include "core/lane_link.h"
#include "util/prbs.h"

namespace serdes::core {
namespace {

std::unique_ptr<channel::Channel> flat(double db) {
  return api::ChannelFactory::instance().create(api::ChannelSpec::flat(db),
                                                LinkConfig::paper_default());
}

TEST(Link, PaperOperatingPointIsErrorFree) {
  // The headline claim: 2 Gbps, PRBS-31, 34 dB loss, zero errors.
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  const auto r = link.run_prbs(4096);
  EXPECT_TRUE(r.aligned);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.payload_bits_compared, 4000u);
  EXPECT_TRUE(r.error_free());
}

TEST(Link, ReceivedSwingMatchesLoss) {
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  const auto r = link.run_prbs(512);
  // 1.8 V * 10^(-34/20) = 36 mV, plus ~mV noise.
  EXPECT_NEAR(r.channel_out.peak_to_peak(), 0.036, 0.025);
}

TEST(Link, FailsAtAbsurdLoss) {
  SerDesLink link(LinkConfig::paper_default(), flat(75.0));
  const auto r = link.run_prbs(2048);
  EXPECT_FALSE(r.error_free());
}

TEST(Link, ErrorsIncreaseWithLoss) {
  std::uint64_t errors_low = 0;
  std::uint64_t errors_high = 0;
  {
    SerDesLink link(LinkConfig::paper_default(), flat(30.0));
    errors_low = link.run_prbs(3000).bit_errors;
  }
  {
    SerDesLink link(LinkConfig::paper_default(), flat(58.0));
    const auto r = link.run_prbs(3000);
    errors_high = r.aligned ? r.bit_errors : 3000;
  }
  EXPECT_LE(errors_low, errors_high);
  EXPECT_GT(errors_high, 0u);
}

TEST(Link, WorksAcrossPhaseOffsets) {
  for (double phase : {0.0, 0.21, 0.52, 0.78, 0.93}) {
    LinkConfig cfg = LinkConfig::paper_default();
    cfg.rx_phase_offset_ui = phase;
    SerDesLink link(cfg, flat(30.0));
    const auto r = link.run_prbs(2048);
    EXPECT_TRUE(r.error_free()) << "phase offset " << phase;
  }
}

TEST(Link, TracksPpmOffsetModuloBitSlips) {
  // A plesiochronous offset makes the sampling grid drift through the data;
  // the oversampling CDR follows by stepping its decision phase, and a step
  // across the UI wrap legitimately emits 0 or 2 bits (rate adaptation).
  // The honest property: after any slip, the stream is recovered
  // contiguously again — the payload tail appears intact in the raw
  // recovered bits even if fixed-offset comparison breaks.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.ppm_offset = 40.0;
  SerDesLink link(cfg, flat(25.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  EXPECT_TRUE(r.aligned);
  const std::vector<std::uint8_t> tail(payload.end() - 400, payload.end() - 8);
  const auto& hay = r.rx.recovered_bits;
  bool found = false;
  for (std::size_t st = 0; !found && st + tail.size() <= hay.size(); ++st) {
    bool m = true;
    for (std::size_t i = 0; i < tail.size() && m; ++i) {
      m = hay[st + i] == tail[i];
    }
    found = m;
  }
  EXPECT_TRUE(found);
}

TEST(Link, TruncatedTailCountsAsErrorsBeyondCdrAllowance) {
  // Payload bits the receiver never delivered at the end of an aligned run
  // must count as errors beyond the small CDR pipeline allowance, or deep
  // BER sweeps would silently credit truncated chunks as error-free
  // coverage.  Pinned on score_payload directly: a correct prefix with a
  // 40-bit short tail.
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(2048);
  constexpr std::uint64_t kShort = 40;
  constexpr std::uint64_t kAllow = SerDesLink::kCdrTailAllowanceBits;
  const auto truncated = [&](std::uint64_t missing, bool aligned) {
    LinkResult r;
    r.aligned = aligned;
    r.rx.payload.assign(payload.begin(),
                        payload.end() - static_cast<std::ptrdiff_t>(missing));
    return r;
  };

  LinkResult r = truncated(kShort, true);
  score_payload(LinkConfig::paper_default(), payload, r);
  EXPECT_EQ(r.bit_errors, kShort - kAllow);
  EXPECT_EQ(r.payload_bits_compared, payload.size() - kAllow);
  EXPECT_DOUBLE_EQ(r.ber, static_cast<double>(kShort - kAllow) /
                              static_cast<double>(payload.size() - kAllow));

  // A tail within the allowance costs nothing.
  r = truncated(kAllow, true);
  score_payload(LinkConfig::paper_default(), payload, r);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_EQ(r.payload_bits_compared, payload.size() - kAllow);

  // Unaligned runs are not charged here (measure_ber charges the chunk).
  r = truncated(kShort, false);
  score_payload(LinkConfig::paper_default(), payload, r);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_EQ(r.payload_bits_compared, payload.size() - kShort);

  // PAM4 holds two bits per UI in the CDR pipeline: twice the allowance.
  LinkConfig pam4 = LinkConfig::paper_default();
  pam4.modulation = LinkConfig::Modulation::kPam4;
  r = truncated(kShort, true);
  score_payload(pam4, payload, r);
  EXPECT_EQ(r.bit_errors, kShort - 2 * kAllow);
}

TEST(Link, PpmDriftBelowOneUiDeliversTheWholePayload) {
  // -500 ppm over ~2.3k UI drifts about 1 UI: the CDR tracks it with
  // phase steps (some negative), and recovery continues through every one
  // of them, so no tail is lost and nothing is charged.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.ppm_offset = -500.0;
  SerDesLink link(cfg, flat(10.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  ASSERT_TRUE(r.aligned);
  EXPECT_GT(r.rx.cdr_phase_updates, 0u);
  EXPECT_GE(r.rx.payload.size(),
            payload.size() - SerDesLink::kCdrTailAllowanceBits);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(Link, HealthyRunHasNoTailPenalty) {
  SerDesLink link(LinkConfig::paper_default(), flat(34.0));
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs31);
  const auto payload = prbs.next_bits(2048);
  const auto r = link.run(payload);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.rx.payload.size(), payload.size());
  EXPECT_EQ(r.payload_bits_compared, payload.size());
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(Link, NullChannelThrows) {
  EXPECT_THROW(SerDesLink(LinkConfig::paper_default(), nullptr),
               std::invalid_argument);
}

TEST(Link, TransmitterWireBitsLayout) {
  const LinkConfig cfg = LinkConfig::paper_default();
  Transmitter tx(cfg);
  const std::vector<std::uint8_t> payload = {1, 1, 0, 1};
  const auto wire = tx.wire_bits(payload);
  EXPECT_EQ(wire.size(), static_cast<std::size_t>(cfg.framing.preamble_bits) +
                             32 + payload.size());
  EXPECT_EQ(wire.back(), 1);
}

TEST(Link, FramesRoundTripThroughAnalog) {
  const LinkConfig cfg = LinkConfig::paper_default();
  Transmitter tx(cfg);
  Receiver rx(cfg);
  digital::ParallelFrame frame;
  for (std::size_t i = 0; i < frame.lanes.size(); ++i) {
    frame.lanes[i] = 0xC0FFEE00u + static_cast<std::uint32_t>(i);
  }
  auto w = tx.transmit_frames({frame});
  channel::FlatChannel ch(util::decibels(20.0));
  auto out = ch.transmit(w);
  const auto result = rx.receive(out);
  ASSERT_TRUE(result.aligned);
  ASSERT_GE(result.frames.size(), 1u);
  EXPECT_EQ(result.frames[0], frame);
}

TEST(Link, DeterministicAcrossRuns) {
  SerDesLink a(LinkConfig::paper_default(), flat(34.0));
  SerDesLink b(LinkConfig::paper_default(), flat(34.0));
  const auto ra = a.run_prbs(1024);
  const auto rb = b.run_prbs(1024);
  EXPECT_EQ(ra.bit_errors, rb.bit_errors);
  EXPECT_EQ(ra.rx.recovered_bits, rb.rx.recovered_bits);
}

void expect_same_waveform(const analog::Waveform& a, const analog::Waveform& b,
                          const char* what) {
  EXPECT_EQ(a.start_time().value(), b.start_time().value()) << what;
  EXPECT_EQ(a.sample_period().value(), b.sample_period().value()) << what;
  EXPECT_EQ(a.samples(), b.samples()) << what;
}

TEST(LaneLink, FirstChunkCaptureMatchesOneLaneLinkPerSeed) {
  // Every lane of a tile taps all four capture points — TX launch,
  // post-AWGN channel output, RFI output and sampler input — exactly as a
  // one-lane link with that lane's seed does.
  LinkConfig cfg = LinkConfig::paper_default();
  cfg.channel_noise_rms = 0.002;
  cfg.rx_ctle_boost = util::decibels(3.0);
  cfg.capture_waveforms = true;
  cfg.capture_max_samples = 0;  // the whole chunk
  constexpr std::uint64_t kBits = 512;
  const std::vector<std::uint64_t> seeds{7, 1234, 99};
  LaneLink tile(cfg, flat(20.0), seeds);
  const std::vector<LaneOutcome> lanes =
      tile.measure(kBits, kBits, 0.95, cfg.prbs_order);
  ASSERT_EQ(lanes.size(), seeds.size());
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    LinkConfig one = cfg;
    one.noise_seed = seeds[l];
    SerDesLink link(one, flat(20.0));
    util::PrbsGenerator prbs(cfg.prbs_order);
    const LinkResult r = link.run(prbs.next_bits(kBits));
    const LaneOutcome& o = lanes[l];
    ASSERT_FALSE(r.rx.rfi_out.samples().empty());
    expect_same_waveform(o.tx_out, r.tx_out, "tx_out");
    expect_same_waveform(o.channel_out, r.channel_out, "channel_out");
    expect_same_waveform(o.rfi_out, r.rx.rfi_out, "rfi_out");
    expect_same_waveform(o.restored, r.rx.restored, "restored");
    EXPECT_EQ(o.rx_swing_pp, r.rx_swing_pp);
    EXPECT_EQ(o.decision_threshold, r.decision_threshold);
  }
  // The lanes carry distinct noise, so the comparison is not vacuous.
  EXPECT_NE(lanes[0].channel_out.samples(), lanes[1].channel_out.samples());
  EXPECT_NE(lanes[0].rfi_out.samples(), lanes[1].rfi_out.samples());
}

TEST(Ber, UpperBoundZeroErrors) {
  // 0 errors over N bits at 95%: -ln(0.05)/N = 3.0/N.
  EXPECT_NEAR(ber_upper_bound(100000, 0, 0.95), 2.9957e-5, 1e-8);
  EXPECT_NEAR(ber_upper_bound(1000, 0, 0.99), 4.6052e-3, 1e-6);
  EXPECT_DOUBLE_EQ(ber_upper_bound(0, 0, 0.95), 1.0);
}

TEST(Ber, UpperBoundWithErrors) {
  const double bound = ber_upper_bound(1000000, 10, 0.95);
  EXPECT_GT(bound, 10e-6);   // above the point estimate
  EXPECT_LT(bound, 25e-6);   // but not wildly so
}

TEST(Ber, MeasurementAccumulatesChunks) {
  SerDesLink link(LinkConfig::paper_default(), flat(30.0));
  const auto m = measure_ber(link, 8192, 2048);
  EXPECT_TRUE(m.error_free());
  EXPECT_GE(m.bits, 8000u);
  EXPECT_GT(m.ber_upper_bound, 0.0);
  EXPECT_LT(m.ber_upper_bound, 1e-3);
}

TEST(Ber, DetectsBrokenLink) {
  SerDesLink link(LinkConfig::paper_default(), flat(70.0));
  const auto m = measure_ber(link, 4096, 2048);
  EXPECT_FALSE(m.error_free());
  EXPECT_GT(m.ber, 1e-3);
}

}  // namespace
}  // namespace serdes::core
