#include "core/link.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "channel/equalizer.h"
#include "core/ber.h"
#include "digital/framing.h"
#include "pipe/lane_stages.h"
#include "pipe/stages.h"

namespace serdes::core {

namespace {

/// The TX launch source for `payload`'s wire bits: per-symbol launch
/// levels (NRZ, TX FFE or gray-mapped PAM4) and the stream time base.
pipe::LevelPulseSource launch(const LinkConfig& config, const Transmitter& tx,
                              const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> bits = tx.wire_bits(payload);
  const double vdd = config.driver.vdd.value();
  // Plain NRZ and PAM4 carry the driver delay (as
  // Transmitter::transmit_bits does); the FFE path launches the
  // pre-distorted levels at t0 = 0 (as TxFfe::shape does).
  util::Second stream_t0 = tx.driver().total_delay();
  std::vector<double> levels;
  if (config.modulation == LinkConfig::Modulation::kPam4) {
    // Gray-map bit pairs (MSB first) onto the 4 launch levels:
    // (0,0)->0, (0,1)->1, (1,1)->2, (1,0)->3 in ascending voltage, so
    // every slicer error against an adjacent level costs exactly one bit.
    // The alternating-1010 preamble would gray-map to a constant symbol 3
    // (no edges — the CDR could never lock), so the preamble region
    // instead launches alternating full-swing 3,0 symbols; the deframer
    // aligns on the sync word, not the preamble content.
    const std::size_t preamble_syms =
        std::min<std::size_t>(static_cast<std::size_t>(std::max(
                                  0, config.framing.preamble_bits)),
                              bits.size()) /
        2;
    levels.resize((bits.size() + 1) / 2);
    for (std::size_t s = 0; s < levels.size(); ++s) {
      if (s < preamble_syms) {
        levels[s] = (s % 2 == 0) ? vdd : 0.0;
        continue;
      }
      const bool msb = bits[2 * s] != 0;
      const bool lsb = 2 * s + 1 < bits.size() && bits[2 * s + 1] != 0;
      const int symbol = msb ? (lsb ? 2 : 3) : (lsb ? 1 : 0);
      levels[s] = static_cast<double>(symbol) * (vdd / 3.0);
    }
  } else if (config.tx_ffe_deemphasis != 0.0) {
    levels = channel::TxFfe::de_emphasis(config.tx_ffe_deemphasis,
                                         config.driver.vdd)
                 .levels(bits);
    stream_t0 = util::seconds(0.0);
  } else {
    levels.resize(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      levels[i] = bits[i] ? vdd : 0.0;
    }
  }
  return pipe::LevelPulseSource(std::move(levels), config.unit_interval(),
                                config.samples_per_ui,
                                tx.driver().output_rise_time(), stream_t0);
}

/// Builds the crosstalk-injection paths for one pass.  All lanes of a bus
/// carry the same framed PRBS stream, so an aggressor's launch levels are
/// the victim's levels shifted by the configured UI delay (idle zeros
/// prepended).  FEXT paths get a private stream of the victim's channel
/// model; zero-gain paths are dropped entirely so a zero-coupling bus
/// stays byte-identical to independent links.
std::vector<pipe::XtalkInjectStage::Path> build_xtalk_paths(
    const LinkConfig& config, channel::Channel& ch,
    const std::vector<double>& levels) {
  std::vector<pipe::XtalkInjectStage::Path> paths;
  for (const XtalkPath& x : config.xtalk) {
    if (x.gain == 0.0) continue;
    pipe::XtalkInjectStage::Path p;
    p.levels.assign(static_cast<std::size_t>(std::max(0, x.delay_ui)), 0.0);
    p.levels.insert(p.levels.end(), levels.begin(), levels.end());
    p.gain = x.gain;
    if (x.through_channel) p.channel_stream = ch.open_stream();
    paths.push_back(std::move(p));
  }
  return paths;
}

/// The sampler/CDR sink every run ends in: one lane per entry of
/// `lane_seeds` (each lane's jitter/slicers seeded from it as a link's
/// noise_seed), slicing at `thresholds`, over `source`'s stream.
pipe::SamplerCdrSink make_sink(const LinkConfig& config,
                               std::vector<double> thresholds,
                               const std::vector<std::uint64_t>& lane_seeds,
                               const pipe::LevelPulseSource& source) {
  pipe::SamplerCdrSink::Config c;
  c.symbol_rate = util::hertz(config.bit_rate.value() /
                              static_cast<double>(config.bits_per_ui()));
  c.oversampling = config.cdr.oversampling;
  c.phase_offset = util::seconds(config.rx_phase_offset_ui *
                                 config.unit_interval().value());
  c.ppm_offset = config.ppm_offset;
  c.jitter.random_rms = config.rx_random_jitter;
  c.jitter.sinusoidal_amplitude = config.rx_sinusoidal_jitter;
  c.jitter.sinusoidal_freq =
      util::hertz(config.sj_freq_ratio * config.bit_rate.value());
  c.sampler = config.sampler;
  c.cdr = config.cdr;
  c.thresholds = std::move(thresholds);
  for (const std::uint64_t seed : lane_seeds) {
    c.jitter_seeds.push_back(seed + 1);
    c.sampler_seeds.push_back(seed + 2);
  }
  c.dfe_taps = config.dfe_taps;
  c.total_samples = source.total_samples();
  c.stream_t0 = source.stream_t0();
  c.dt = source.dt();
  c.block_samples = std::max<std::size_t>(1, config.stream_block_samples);
  return pipe::SamplerCdrSink(c);
}

/// What lane `lane` of a drained sink recovered: bits, deframed payload,
/// frames and CDR / metastability diagnostics.
ReceiveResult receive(const LinkConfig& config,
                      const pipe::SamplerCdrSink& sink, std::size_t lane) {
  ReceiveResult rx;
  rx.recovered_bits = sink.recovered_bits(lane);
  rx.payload = digital::deframe_stream(rx.recovered_bits, config.framing);
  rx.aligned = !rx.payload.empty();
  rx.frames = digital::Deserializer::deserialize(rx.payload);
  rx.cdr_decision_phase = sink.cdr(lane).decision_phase();
  rx.cdr_phase_updates = sink.cdr(lane).phase_updates();
  rx.metastable_samples = sink.metastable_count(lane);
  return rx;
}

/// Pass 1's running extent of every lane of `tile`: lo[l]/hi[l] fold in
/// the lane's min/max.  A one-lane tile (every single link) keeps both in
/// registers; wider tiles walk the rows, whose lane loop vectorizes.
void fold_extent(const pipe::LaneView& tile, double* lo, double* hi) {
  if (tile.lanes == 1) {
    double a = *lo;
    double b = *hi;
    for (std::size_t i = 0; i < tile.size; ++i) {
      a = std::min(a, tile.data[i]);
      b = std::max(b, tile.data[i]);
    }
    *lo = a;
    *hi = b;
    return;
  }
  for (std::size_t i = 0; i < tile.size; ++i) {
    const double* row = tile.data + i * tile.lanes;
    for (std::size_t l = 0; l < tile.lanes; ++l) {
      lo[l] = std::min(lo[l], row[l]);
      hi[l] = std::max(hi[l], row[l]);
    }
  }
}

/// Pass 1's running sum of every lane of `tile`, in sample order (the
/// exact Waveform::mean_value() sum per lane); laid out like fold_extent.
void fold_sum(const pipe::LaneView& tile, double* sum) {
  if (tile.lanes == 1) {
    double a = *sum;
    for (std::size_t i = 0; i < tile.size; ++i) a += tile.data[i];
    *sum = a;
    return;
  }
  for (std::size_t i = 0; i < tile.size; ++i) {
    const double* row = tile.data + i * tile.lanes;
    for (std::size_t l = 0; l < tile.lanes; ++l) sum[l] += row[l];
  }
}

/// One receive run's lanes and observers, and what its passes measured.
struct TileRun {
  std::vector<std::uint64_t> awgn_seeds;  // one per lane
  std::vector<std::uint64_t> sink_seeds;  // empty: no sampler/CDR sink
  /// Capture taps, recorded in pass 2 when present: the TX launch (one
  /// lane: it is lane-invariant), the post-AWGN channel output, the RFI
  /// output (NRZ) and the sampler input.
  std::optional<pipe::LaneWaveformTap> tx_tap;
  std::optional<pipe::LaneWaveformTap> channel_tap;
  std::optional<pipe::LaneWaveformTap> rfi_tap;
  std::optional<pipe::LaneWaveformTap> sampler_tap;
  std::vector<double> swing_pp;    // per lane (pass 1)
  std::vector<double> thresholds;  // slicer thresholds, shared by the lanes
  std::optional<pipe::SamplerCdrSink> sink;
};

/// The two-pass receive run: the only block loop of the datapath.
void stream_tile(const LinkConfig& config, const Transmitter& tx,
                 const Receiver& rx, channel::Channel& ch,
                 pipe::LevelPulseSource& source, TileRun& run) {
  const bool pam4 = config.modulation == LinkConfig::Modulation::kPam4;
  const std::size_t lanes = run.awgn_seeds.size();
  const std::uint64_t total = source.total_samples();
  const std::size_t block =
      std::max<std::size_t>(1, config.stream_block_samples);
  const util::Second dt = config.sample_period();
  const bool use_ctle = config.rx_ctle_boost.value() > 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // ---- Pass 1: swing plus the sampler-path statistic -----------------------
  // The noisy pre-CTLE min/max give each lane's rx_swing_pp.  NRZ: the RFI
  // front end subtracts the whole-stream mean of the (equalized) receiver
  // input — the AC coupling in steady state — which streaming can only
  // know after a full pass; it accumulates per lane in sample order.  PAM4 has no RFI/restoring
  // stage (both are hard 2-level nonlinearities; the slicers read the
  // CTLE output), and calibrates its slicers on the noise-free head
  // (channel + crosstalk) through a one-lane CTLE: the middle threshold at
  // the midpoint of the clean range, the outer two at +/- one third of it
  // — the boundaries between four equally spaced levels.  The range
  // midpoint, unlike the mean, is immune to the duty skew of the
  // zero-level lead-in/out, and leaving the noise out keeps its tails from
  // pushing the outer thresholds off the sub-eye boundaries.  A PAM4
  // replay without a sink reads neither, so it skips the pass.
  std::vector<double> lo(lanes, kInf);
  std::vector<double> hi(lanes, -kInf);
  std::vector<double> sum(lanes, 0.0);
  double clean_lo = kInf;
  double clean_hi = -kInf;
  const bool measure = !pam4 || !run.sink_seeds.empty();
  for (int pass = measure ? 1 : 2; pass <= 2; ++pass) {
    const bool first = pass == 1;
    source.reset();
    // Fresh stages per pass, so pass state never leaks: the shared head
    // (channel, then crosstalk with private aggressor streams), the AWGN
    // fan-out and the per-lane front end.
    const auto channel_stream = ch.open_stream();
    std::optional<pipe::XtalkInjectStage> xtalk;
    if (auto paths = build_xtalk_paths(config, ch, source.levels());
        !paths.empty()) {
      xtalk.emplace(std::move(paths), config.unit_interval(),
                    config.samples_per_ui, tx.driver().output_rise_time(),
                    source.stream_t0());
    }
    pipe::LaneAwgnStage awgn(per_sample_noise_sigma(config), run.awgn_seeds);
    std::optional<pipe::LaneCtleStage> ctle;
    if (use_ctle) {
      // PAM4's pass 1 equalizes only the noise-free head: one lane.
      ctle.emplace(config.rx_ctle_boost, config.rx_ctle_pole, dt,
                   first && pam4 ? 1 : lanes);
    }
    std::optional<pipe::LaneRfiStage> rfi;
    std::optional<pipe::LaneRestoreStage> restore;
    if (!first && !pam4) {
      rfi.emplace(rx.rfi_stage(), dt, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        rfi->set_mean(l, total > 0 ? sum[l] / static_cast<double>(total) : 0.0);
      }
      restore.emplace(rx.restoring(), dt, lanes);
    }
    if (!first && !run.sink_seeds.empty()) {
      run.sink.emplace(
          make_sink(config, run.thresholds, run.sink_seeds, source));
    }

    pipe::Block blk;
    pipe::Block mixed;
    pipe::LaneBlock noisy;
    pipe::LaneBlock eq;
    pipe::LaneBlock rfi_out;
    pipe::LaneBlock restored;
    while (source.produce(blk, block) > 0) {
      if (!first && run.tx_tap) run.tx_tap->record(pipe::as_tile(blk.view()));
      channel_stream->transmit_block(blk.data(), blk.data(), blk.size());
      pipe::BlockView head = blk.view();
      if (xtalk) {
        xtalk->process(head, mixed);
        head = mixed.view();
      }
      awgn.process(head, noisy);
      pipe::LaneView v = noisy.view();
      if (first) {
        fold_extent(v, lo.data(), hi.data());
      } else if (run.channel_tap) {
        run.channel_tap->record(v);
      }
      if (first && pam4) {
        pipe::LaneView clean = pipe::as_tile(head);
        if (ctle) {
          ctle->process(clean, eq);
          clean = eq.view();
        }
        fold_extent(clean, &clean_lo, &clean_hi);
        continue;
      }
      if (ctle) {
        ctle->process(v, eq);
        v = eq.view();
      }
      if (first) {
        fold_sum(v, sum.data());
        continue;
      }
      if (rfi) {
        rfi->process(v, rfi_out);
        v = rfi_out.view();
        if (run.rfi_tap) run.rfi_tap->record(v);
        restore->process(v, restored);
        v = restored.view();
      }
      // The sampler input: restored (NRZ) or equalized (PAM4) — either way
      // it fills the report's "restored" slot.
      if (run.sampler_tap) run.sampler_tap->record(v);
      if (run.sink) run.sink->consume(v);
    }
    if (first) {
      for (std::size_t l = 0; l < lanes; ++l) {
        run.swing_pp.push_back(total > 0 ? hi[l] - lo[l] : 0.0);
      }
      run.thresholds = {rx.decision_threshold()};
      if (pam4) {
        const double mid = total > 0 ? 0.5 * (clean_lo + clean_hi) : 0.0;
        const double third = total > 0 ? (clean_hi - clean_lo) / 3.0 : 0.0;
        run.thresholds = {mid - third, mid, mid + third};
      }
    }
  }
  if (run.sink) run.sink->finish();
}

}  // namespace

SerDesLink::SerDesLink(const LinkConfig& config,
                       std::unique_ptr<channel::Channel> ch)
    : config_(config), tx_(config), rx_(config), channel_(std::move(ch)) {
  if (!channel_) throw std::invalid_argument("SerDesLink: null channel");
}

LinkResult SerDesLink::run(const std::vector<std::uint8_t>& payload) {
  // Receiver-input AWGN: a fresh seed per run keeps repeated runs
  // statistically independent while the whole experiment stays
  // deterministic.
  std::vector<LinkResult> results = run_link_tile(
      config_, tx_, rx_, *channel_, payload, {config_.noise_seed},
      {config_.noise_seed + 100 + run_counter_++}, config_.capture_waveforms);
  return std::move(results[0]);
}

std::vector<LinkResult> run_link_tile(
    const LinkConfig& config, const Transmitter& tx, const Receiver& rx,
    channel::Channel& channel, const std::vector<std::uint8_t>& payload,
    const std::vector<std::uint64_t>& lane_seeds,
    const std::vector<std::uint64_t>& awgn_seeds, bool capture) {
  const std::size_t lanes = lane_seeds.size();
  if (lanes == 0 || awgn_seeds.size() != lanes) {
    throw std::invalid_argument(
        "run_link_tile: need one AWGN seed per lane seed (at least one)");
  }
  pipe::LevelPulseSource source = launch(config, tx, payload);
  TileRun run;
  run.awgn_seeds = awgn_seeds;
  run.sink_seeds = lane_seeds;
  if (capture) {
    const std::size_t cap = config.capture_max_samples > 0
                                ? config.capture_max_samples
                                : static_cast<std::size_t>(-1);
    run.tx_tap.emplace(1, cap);
    run.channel_tap.emplace(lanes, cap);
    if (config.modulation == LinkConfig::Modulation::kNrz) {
      run.rfi_tap.emplace(lanes, cap);
    }
    run.sampler_tap.emplace(lanes, cap);
  }
  stream_tile(config, tx, rx, channel, source, run);

  std::vector<LinkResult> results(lanes);
  const analog::Waveform tx_out =
      capture ? run.tx_tap->take(0) : analog::Waveform{};
  for (std::size_t l = 0; l < lanes; ++l) {
    LinkResult& r = results[l];
    r.payload_bits_sent = payload.size();
    r.rx_swing_pp = run.swing_pp[l];
    r.decision_threshold = run.thresholds[run.thresholds.size() / 2];
    r.rx = receive(config, *run.sink, l);
    if (capture) {
      r.tx_out = tx_out;
      r.channel_out = run.channel_tap->take(l);
      if (run.rfi_tap) r.rx.rfi_out = run.rfi_tap->take(l);
      r.rx.restored = run.sampler_tap->take(l);
    }
    r.aligned = r.rx.aligned;
    score_payload(config, payload, r);
  }
  return results;
}

std::vector<double> replay_sampler_input(
    const LinkConfig& config, const Transmitter& tx, const Receiver& rx,
    channel::Channel& channel, std::vector<double> levels,
    util::Second stream_t0, std::uint64_t awgn_seed) {
  pipe::LevelPulseSource source(std::move(levels), config.unit_interval(),
                                config.samples_per_ui,
                                tx.driver().output_rise_time(), stream_t0);
  TileRun run;
  run.awgn_seeds = {awgn_seed};
  run.sampler_tap.emplace(1, static_cast<std::size_t>(-1));
  stream_tile(config, tx, rx, channel, source, run);
  analog::Waveform input = run.sampler_tap->take(0);
  return std::move(input.samples());
}

LinkResult SerDesLink::run_prbs(std::size_t nbits) {
  return run_prbs(nbits, config_.prbs_order);
}

LinkResult SerDesLink::run_prbs(std::size_t nbits, util::PrbsOrder order) {
  util::PrbsGenerator prbs(order);
  return run(prbs.next_bits(nbits));
}

}  // namespace serdes::core
