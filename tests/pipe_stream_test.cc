// Streaming-equivalence suite: the block pipeline must be bit-identical to
// the whole-waveform reference (tests/batch_reference.h) — per channel
// kind, per block size, and end-to-end through SerDesLink and
// api::Simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/bus_spec.h"
#include "api/spec_json.h"
#include "batch_reference.h"
#include "channel/channel.h"
#include "core/link.h"
#include "pipe/lane_block.h"
#include "pipe/stages.h"
#include "util/prbs.h"

namespace serdes {
namespace {

constexpr util::Second kDt = util::Second{31.25e-12};  // 2 Gbps, 16 s/UI

analog::Waveform test_wave(std::size_t nbits = 512) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  return analog::Waveform::nrz(prbs.next_bits(nbits), util::nanoseconds(0.5),
                               16, 0.0, 1.8, util::picoseconds(100.0));
}

/// Streams `in` through the channel in `chunk`-sample blocks.
analog::Waveform stream_chunked(const channel::Channel& ch,
                                const analog::Waveform& in,
                                std::size_t chunk) {
  analog::Waveform out = in;
  const auto stream = ch.open_stream();
  auto& samples = out.samples();
  for (std::size_t i = 0; i < samples.size(); i += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - i);
    stream->transmit_block(samples.data() + i, samples.data() + i, n);
  }
  return out;
}

void expect_identical(const analog::Waveform& a, const analog::Waveform& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.start_time().value(), b.start_time().value()) << what;
  EXPECT_EQ(a.sample_period().value(), b.sample_period().value()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << " of "
                            << a.size() << " samples differ";
}

std::vector<api::ChannelSpec> all_channel_kinds() {
  return {
      api::ChannelSpec::flat(34.0),
      api::ChannelSpec::rc(2.5e9, 3.0),
      api::ChannelSpec::lossy_line(2.0, 10.0, 8.0),
      api::ChannelSpec::fir({0.1, 0.7, 0.25, -0.1}, 16),
      api::ChannelSpec::cascade({api::ChannelSpec::flat(6.0),
                                 api::ChannelSpec::rc(3e9),
                                 api::ChannelSpec::fir({0.8, 0.2}, 16)}),
  };
}

TEST(ChannelStreaming, BlockChunkingIsBitIdenticalForEveryKind) {
  const auto cfg = core::LinkConfig::paper_default();
  const analog::Waveform in = test_wave();
  for (const auto& spec : all_channel_kinds()) {
    const auto ch = api::ChannelFactory::instance().create(spec, cfg);
    const analog::Waveform batch = ch->transmit(in);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{4096}}) {
      const analog::Waveform streamed = stream_chunked(*ch, in, chunk);
      expect_identical(batch, streamed,
                       (spec.kind + " @" + std::to_string(chunk)).c_str());
    }
  }
}

TEST(ChannelStreaming, StreamResetRestartsFromZeroState) {
  const auto cfg = core::LinkConfig::paper_default();
  const auto ch = api::ChannelFactory::instance().create(
      api::ChannelSpec::lossy_line(2.0, 10.0, 8.0), cfg);
  const analog::Waveform in = test_wave(64);
  const analog::Waveform batch = ch->transmit(in);

  const auto stream = ch->open_stream();
  std::vector<double> first(in.samples());
  stream->transmit_block(first.data(), first.data(), first.size());
  stream->reset();
  std::vector<double> second(in.samples());
  stream->transmit_block(second.data(), second.data(), second.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_EQ(second[i], batch[i]) << "sample " << i;
  }
}

/// One grow-path case of the sampler/CDR sink: lane count and modulation.
struct GrowCase {
  const char* name;
  std::size_t lanes;
  bool pam4;
};

/// Lane `lane`'s test stream: NRZ over a lane-specific PRBS window, or a
/// four-level stream (two NRZ rails weighted 2/3 and 1/3 of the swing).
analog::Waveform grow_wave(std::size_t lane, bool pam4) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  (void)prbs.next_bits(17 * lane);
  const auto nrz = [&] {
    return analog::Waveform::nrz(prbs.next_bits(128), util::nanoseconds(0.5),
                                 16, 0.0, 1.8, util::picoseconds(100.0));
  };
  analog::Waveform w = nrz();
  if (pam4) {
    const analog::Waveform lsb = nrz();
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.samples()[i] = w.samples()[i] * (2.0 / 3.0) + lsb.samples()[i] / 3.0;
    }
  }
  return w;
}

/// Whole-waveform reference for one lane: the batch sampling loop
/// (digital::sample_waveform + OversamplingCdr::recover for NRZ; the same
/// instant order through the mid/low/high slicers and push2 for PAM4).
std::vector<std::uint8_t> reference_bits(
    const analog::Waveform& w, const pipe::SamplerCdrSink::Config& c,
    std::size_t lane) {
  const digital::MultiphaseClockGenerator clocks(
      c.symbol_rate, c.oversampling, c.phase_offset, c.ppm_offset);
  channel::JitterModel::Config jc = c.jitter;
  jc.seed = c.jitter_seeds[lane];
  channel::JitterModel jitter(jc);
  const auto slicer = [&](std::size_t threshold, std::uint64_t offset) {
    analog::DffSampler::Config sc = c.sampler;
    sc.threshold = c.thresholds[threshold];
    sc.seed = c.sampler_seeds[lane] + offset;
    return analog::DffSampler(sc);
  };
  digital::OversamplingCdr cdr(c.cdr);
  if (c.thresholds.size() == 1) {
    analog::DffSampler sampler = slicer(0, 0);
    return cdr.recover(digital::sample_waveform(w, clocks, sampler, &jitter));
  }
  analog::DffSampler mid = slicer(1, 0);
  analog::DffSampler low = slicer(0, 1);
  analog::DffSampler high = slicer(2, 2);
  for (std::uint64_t ui = 0; clocks.instant(ui, 0) < w.end_time(); ++ui) {
    for (int p = 0; p < clocks.phases(); ++p) {
      const util::Second t = jitter.perturb(clocks.instant(ui, p));
      const bool msb = mid.sample(w, t);
      const bool above_low = low.sample(w, t);
      const bool above_high = high.sample(w, t);
      cdr.push2(msb, above_low && !above_high);
    }
  }
  std::vector<std::uint8_t> bits;
  for (std::size_t i = 0; i < cdr.recovered().size(); ++i) {
    bits.push_back(cdr.recovered()[i]);
    bits.push_back(cdr.aux_recovered()[i]);
  }
  return bits;
}

TEST(SamplerCdrSink, GrowsWindowForBlocksBeyondTheSizingHint) {
  // A tile far larger than Config::block_samples must not wrap the rolling
  // window over itself — the sink grows it (re-placing the live span a
  // first small tile left behind) and every lane stays bit-identical to
  // the batch sampling chain.
  for (const GrowCase& gc : {GrowCase{"nrz x1", 1, false},
                             GrowCase{"nrz x3", 3, false},
                             GrowCase{"pam4 x1", 1, true}}) {
    SCOPED_TRACE(gc.name);
    std::vector<analog::Waveform> waves;
    for (std::size_t l = 0; l < gc.lanes; ++l) {
      waves.push_back(grow_wave(l, gc.pam4));
    }
    const analog::Waveform& w = waves[0];
    pipe::SamplerCdrSink::Config c;
    c.symbol_rate = util::gigahertz(2.0);
    c.oversampling = 5;
    c.jitter.random_rms = util::picoseconds(2.0);
    c.thresholds = gc.pam4 ? std::vector<double>{0.3, 0.9, 1.5}
                           : std::vector<double>{0.9};
    for (std::size_t l = 0; l < gc.lanes; ++l) {
      c.jitter_seeds.push_back(11 + 10 * l);
      c.sampler_seeds.push_back(12 + 10 * l);
    }
    c.total_samples = w.size();
    c.stream_t0 = w.start_time();
    c.dt = w.sample_period();
    c.block_samples = 64;  // hint far below the second tile
    pipe::SamplerCdrSink sink(c);

    pipe::LaneBlock tile;
    const std::size_t split = 40;
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{0, split},
          std::pair<std::size_t, std::size_t>{split, w.size()}}) {
      tile.shape(end - begin, gc.lanes, begin, w.start_time(),
                 w.sample_period(), end == w.size());
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t l = 0; l < gc.lanes; ++l) {
          tile.data()[(i - begin) * gc.lanes + l] = waves[l].samples()[i];
        }
      }
      sink.consume(tile.view());
    }
    sink.finish();

    for (std::size_t l = 0; l < gc.lanes; ++l) {
      const auto expected = reference_bits(waves[l], c, l);
      ASSERT_FALSE(expected.empty()) << "lane " << l;
      EXPECT_EQ(sink.recovered_bits(l), expected) << "lane " << l;
    }
  }
}

/// End-to-end: the streamed LinkResult must match the whole-waveform
/// reference exactly, including captured waveforms and CDR diagnostics.
void expect_identical_runs(core::LinkConfig cfg, const api::ChannelSpec& ch,
                           std::size_t payload_bits,
                           std::size_t block_samples) {
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const auto payload = prbs.next_bits(payload_bits);

  cfg.capture_waveforms = true;
  const core::LinkResult batch = testing::batch_reference_run(
      cfg, *api::ChannelFactory::instance().create(ch, cfg), payload);

  cfg.stream_block_samples = block_samples;
  core::SerDesLink stream_link(
      cfg, api::ChannelFactory::instance().create(ch, cfg));
  const core::LinkResult streamed = stream_link.run(payload);

  EXPECT_EQ(batch.aligned, streamed.aligned);
  EXPECT_EQ(batch.bit_errors, streamed.bit_errors);
  EXPECT_EQ(batch.payload_bits_compared, streamed.payload_bits_compared);
  EXPECT_EQ(batch.ber, streamed.ber);
  EXPECT_EQ(batch.rx_swing_pp, streamed.rx_swing_pp);
  EXPECT_EQ(batch.rx.recovered_bits, streamed.rx.recovered_bits);
  EXPECT_EQ(batch.rx.payload, streamed.rx.payload);
  EXPECT_EQ(batch.rx.cdr_decision_phase, streamed.rx.cdr_decision_phase);
  EXPECT_EQ(batch.rx.cdr_phase_updates, streamed.rx.cdr_phase_updates);
  EXPECT_EQ(batch.rx.metastable_samples, streamed.rx.metastable_samples);
  expect_identical(batch.tx_out, streamed.tx_out, "tx_out");
  expect_identical(batch.channel_out, streamed.channel_out, "channel_out");
  expect_identical(batch.rx.rfi_out, streamed.rx.rfi_out, "rfi_out");
  expect_identical(batch.rx.restored, streamed.rx.restored, "restored");
}

TEST(LinkStreaming, BitIdenticalToBatchForEveryChannelKind) {
  for (const auto& ch : all_channel_kinds()) {
    expect_identical_runs(core::LinkConfig::paper_default(), ch, 512, 16384);
  }
}

TEST(LinkStreaming, BitIdenticalAcrossBlockSizes) {
  const auto ch = api::ChannelSpec::flat(34.0);
  for (std::size_t block : {std::size_t{1}, std::size_t{7},
                            std::size_t{4096}, std::size_t{1} << 20}) {
    expect_identical_runs(core::LinkConfig::paper_default(), ch, 256, block);
  }
}

TEST(LinkStreaming, BitIdenticalWithEqualizationAndImpairments) {
  core::LinkConfig cfg = core::LinkConfig::paper_default();
  cfg.tx_ffe_deemphasis = 0.15;
  cfg.rx_ctle_boost = util::decibels(4.0);
  cfg.rx_sinusoidal_jitter = util::picoseconds(3.0);
  cfg.ppm_offset = 150.0;
  expect_identical_runs(cfg, api::ChannelSpec::lossy_line(2.0, 14.0, 10.0),
                        512, 2048);
}

TEST(SimulatorStreaming, ReportsMatchBatchExactly) {
  api::LinkSpec spec;
  spec.payload_bits = 8192;
  spec.chunk_bits = 2048;
  spec.channel = api::ChannelSpec::flat(34.0);
  const api::Simulator sim;
  for (std::uint64_t block : {std::uint64_t{1024}, std::uint64_t{16384}}) {
    spec.stream_block_samples = block;
    const api::RunReport batch = testing::batch_reference_report(spec);
    const api::RunReport streamed = sim.run(spec);
    EXPECT_EQ(api::to_json(batch).dump(), api::to_json(streamed).dump());
    EXPECT_EQ(batch.aligned, streamed.aligned);
    EXPECT_EQ(batch.bits, streamed.bits);
    EXPECT_EQ(batch.errors, streamed.errors);
    EXPECT_EQ(batch.ber, streamed.ber);
    EXPECT_EQ(batch.ber_upper_bound, streamed.ber_upper_bound);
    EXPECT_EQ(batch.cdr_decision_phase, streamed.cdr_decision_phase);
    EXPECT_EQ(batch.cdr_phase_updates, streamed.cdr_phase_updates);
    EXPECT_EQ(batch.rx_swing_pp, streamed.rx_swing_pp);
    EXPECT_EQ(batch.decision_threshold, streamed.decision_threshold);
    EXPECT_EQ(batch.eye.eye_height, streamed.eye.eye_height);
    EXPECT_EQ(batch.eye.eye_width_ui, streamed.eye.eye_width_ui);
    EXPECT_EQ(batch.eye.best_phase_ui, streamed.eye.best_phase_ui);
  }
}

TEST(SimulatorStreaming, DiagnosticCaptureIsBoundedOnDeepChunks) {
  // Capture memory must not scale with chunk depth: the tap stages retain
  // only the diagnostic window however deep the (single) chunk is.
  api::LinkSpec spec;
  spec.payload_bits = 100000;
  spec.chunk_bits = 100000;
  spec.capture_waveforms = true;
  const api::Simulator sim;
  const api::RunReport r = sim.run(spec);
  const auto cap = static_cast<std::size_t>(
      sim.options().diagnostic_window_uis *
      static_cast<std::uint64_t>(spec.samples_per_ui));
  EXPECT_GT(r.restored.size(), 0u);
  EXPECT_LE(r.restored.size(), cap);
  EXPECT_LE(r.tx_out.size(), cap);
  EXPECT_LE(r.channel_out.size(), cap);
  EXPECT_TRUE(r.aligned);
}

TEST(SimulatorStreaming, BatchLanesMatchAcrossExecutionModes) {
  std::vector<api::LinkSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "lane" + std::to_string(i);
    specs[i].payload_bits = 2048;
    specs[i].chunk_bits = 1024;
  }
  const api::Simulator sim;
  const auto streamed = sim.run_batch(specs, 2);
  // The reference runs each lane on the seed run_batch derives for it.
  std::vector<api::RunReport> batch;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    api::LinkSpec lane = specs[i];
    lane.seed = api::Simulator::derive_lane_seed(lane.seed, i);
    batch.push_back(testing::batch_reference_report(lane));
  }
  ASSERT_EQ(batch.size(), streamed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].errors, streamed[i].errors) << i;
    EXPECT_EQ(batch[i].bits, streamed[i].bits) << i;
    EXPECT_EQ(batch[i].aligned, streamed[i].aligned) << i;
    EXPECT_EQ(batch[i].rx_swing_pp, streamed[i].rx_swing_pp) << i;
  }
}

// ---- Block-size contract ---------------------------------------------------
// Every Monte Carlo run streams, and the block size is a memory knob only:
// the report must be byte-identical for every block size, on every
// datapath the whole-waveform reference does not model.

/// Block sizes from per-sample to one block per chunk.
constexpr std::uint64_t kBlockSizes[] = {1, 7, 4096, std::uint64_t{1} << 20};

/// Report JSON with the spec's block size pinned to its default, so only
/// what the datapath produced can differ.
std::string block_neutral_json(api::RunReport report) {
  report.spec.stream_block_samples = api::LinkSpec{}.stream_block_samples;
  return api::to_json(report).dump(2);
}

std::string block_neutral_json(api::BusReport report) {
  for (auto& lane : report.lanes) {
    lane.spec.stream_block_samples = api::LinkSpec{}.stream_block_samples;
  }
  return api::to_json(report).dump(2);
}

api::LinkSpec short_link(api::ChannelSpec channel) {
  api::LinkSpec spec;
  spec.channel = std::move(channel);
  spec.payload_bits = 1024;
  spec.chunk_bits = 512;
  return spec;
}

/// The bus_ci operating point (examples/specs/bus_ci.json), shortened.
api::LinkSpec short_pam4_link() {
  api::LinkSpec spec = short_link(api::ChannelSpec::flat(4.0));
  spec.modulation = "pam4";
  spec.preamble_bits = 256;
  spec.noise_rms_v = 0.005;
  return spec;
}

TEST(StreamBlockSize, ReportsAreByteIdenticalAcrossBlockSizes) {
  const struct {
    const char* name;
    api::LinkSpec (*make)();
  } cases[] = {
      {"pam4", short_pam4_link},
      {"fixed_dfe",
       [] {
         api::LinkSpec s =
             short_link(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0));
         s.dfe_taps = {-0.05, -0.02};
         return s;
       }},
      {"trained_eq",
       [] {
         api::LinkSpec s =
             short_link(api::ChannelSpec::lossy_line(8.0, 12.0, 4.0));
         s.eq = "trained";
         s.training_uis = 512;
         return s;
       }},
      {"ffe_ctle_lossy_line",
       [] {
         api::LinkSpec s =
             short_link(api::ChannelSpec::lossy_line(6.0, 10.0, 6.0));
         s.tx_ffe_deemphasis = 0.15;
         s.rx_ctle_boost_db = 4.0;
         return s;
       }},
  };
  const api::Simulator sim;
  for (const auto& c : cases) {
    api::LinkSpec spec = c.make();
    const api::RunReport base = sim.run(spec);
    ASSERT_TRUE(base.aligned) << c.name;
    ASSERT_GE(base.bits, spec.payload_bits - 8) << c.name;
    const std::string reference = block_neutral_json(base);
    for (const std::uint64_t block : kBlockSizes) {
      spec.stream_block_samples = block;
      EXPECT_EQ(block_neutral_json(sim.run(spec)), reference)
          << c.name << " @ block " << block;
    }
  }

  // A 3-lane PAM4 bus with FEXT and NEXT between neighbours.
  api::BusSpec bus;
  bus.name = "xtalk";
  bus.lanes = 3;
  bus.base = short_pam4_link();
  bus.coupling = {{0.0, 0.03, 0.0}, {0.03, 0.0, 0.03}, {0.0, 0.03, 0.0}};
  bus.next_coupling = {{0.0, 0.01, 0.0}, {0.01, 0.0, 0.01}, {0.0, 0.01, 0.0}};
  const api::BusReport bus_base = sim.run_bus(bus, 1);
  for (const api::RunReport& lane : bus_base.lanes) {
    ASSERT_TRUE(lane.aligned) << lane.spec.name;
  }
  const std::string reference = block_neutral_json(bus_base);
  for (const std::uint64_t block : kBlockSizes) {
    bus.base.stream_block_samples = block;
    EXPECT_EQ(block_neutral_json(sim.run_bus(bus, 1)), reference)
        << "bus @ block " << block;
  }
}

// ---- SlowDeep tier: nightly-depth streaming equivalence -------------------

TEST(SlowDeep, StreamingMatchesBatchAtOneMillionBits) {
  // One 2^20-bit chunk streamed (O(block) memory) and through the
  // whole-waveform reference (O(payload) memory) must agree on every
  // observable.
  api::LinkSpec spec;
  spec.payload_bits = 1u << 20;
  spec.chunk_bits = 1u << 20;
  spec.channel = api::ChannelSpec::flat(34.0);
  spec.noise_rms_v = 0.004;  // measurable-BER point: errors must agree too
  const api::RunReport batch = testing::batch_reference_report(spec);
  const api::RunReport streamed = api::Simulator().run(spec);
  EXPECT_EQ(api::to_json(batch).dump(), api::to_json(streamed).dump());

  EXPECT_EQ(batch.aligned, streamed.aligned);
  EXPECT_EQ(batch.bits, streamed.bits);
  EXPECT_EQ(batch.errors, streamed.errors);
  EXPECT_EQ(batch.ber, streamed.ber);
  EXPECT_EQ(batch.cdr_decision_phase, streamed.cdr_decision_phase);
  EXPECT_EQ(batch.cdr_phase_updates, streamed.cdr_phase_updates);
  EXPECT_EQ(batch.rx_swing_pp, streamed.rx_swing_pp);
  EXPECT_EQ(batch.eye.eye_height, streamed.eye.eye_height);
  EXPECT_GT(batch.bits, (1u << 20) - 8u);
}

}  // namespace
}  // namespace serdes
