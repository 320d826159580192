#include "core/link.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "channel/equalizer.h"
#include "digital/framing.h"
#include "pipe/pam_stages.h"
#include "pipe/stages.h"

namespace serdes::core {

SerDesLink::SerDesLink(const LinkConfig& config,
                       std::unique_ptr<channel::Channel> ch)
    : config_(config), tx_(config), rx_(config), channel_(std::move(ch)) {
  if (!channel_) throw std::invalid_argument("SerDesLink: null channel");
}

LinkResult SerDesLink::run(const std::vector<std::uint8_t>& payload) {
  // Receiver-input AWGN: a fresh seed per run keeps repeated runs
  // statistically independent while the whole experiment stays
  // deterministic.
  return run_streaming(payload, config_.noise_seed + 100 + run_counter_++);
}

namespace {

/// Builds the crosstalk-injection paths for one pipeline pass.  All lanes
/// of a bus carry the same framed PRBS stream, so an aggressor's launch
/// levels are the victim's levels shifted by the configured UI delay (idle
/// zeros prepended).  FEXT paths get a private stream of the victim's
/// channel model; zero-gain paths are dropped entirely so a zero-coupling
/// bus stays byte-identical to independent links.
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

}  // namespace

pipe::LevelPulseSource SerDesLink::launch(
    const LinkConfig& config, const Transmitter& tx,
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

pipe::SamplerCdrSink SerDesLink::make_sink(
    const LinkConfig& config, std::vector<double> thresholds,
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

ReceiveResult SerDesLink::receive(const LinkConfig& config,
                                  const pipe::SamplerCdrSink& sink,
                                  std::size_t lane) {
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

LinkResult SerDesLink::run_streaming(const std::vector<std::uint8_t>& payload,
                                     std::uint64_t noise_run_seed) {
  const bool pam4 = config_.modulation == LinkConfig::Modulation::kPam4;
  LinkResult result;
  result.payload_bits_sent = payload.size();

  pipe::LevelPulseSource source = launch(config_, tx_, payload);
  const std::uint64_t total = source.total_samples();
  const std::size_t block =
      std::max<std::size_t>(1, config_.stream_block_samples);
  const bool capture = config_.capture_waveforms;
  const std::size_t capture_cap = config_.capture_max_samples > 0
                                      ? config_.capture_max_samples
                                      : static_cast<std::size_t>(-1);

  // Stage factory shared by every pipeline of both passes, so they cannot
  // drift apart: channel, then crosstalk (private aggressor streams per
  // pipeline, so pass state never leaks across passes), then optionally
  // the receiver-input AWGN.
  const auto add_front = [&](pipe::Pipeline& p, bool noise) {
    p.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
    auto paths = build_xtalk_paths(config_, *channel_, source.levels());
    if (!paths.empty()) {
      p.add(std::make_unique<pipe::XtalkInjectStage>(
          std::move(paths), config_.unit_interval(), config_.samples_per_ui,
          tx_.driver().output_rise_time(), source.stream_t0()));
    }
    if (noise) {
      p.add(std::make_unique<pipe::AwgnStage>(per_sample_noise_sigma(config_),
                                              noise_run_seed));
    }
  };
  const auto add_ctle = [&](pipe::Pipeline& p) {
    if (config_.rx_ctle_boost.value() > 0.0) {
      p.add(std::make_unique<pipe::CtleStage>(config_.rx_ctle_boost,
                                              config_.rx_ctle_pole,
                                              config_.sample_period()));
    }
  };

  // ---- Pass 1: swing plus the sampler-path statistic -----------------------
  // The noisy pre-CTLE min/max give rx_swing_pp.  NRZ: the RFI front end
  // subtracts the whole-stream mean of the (equalized) receiver input —
  // the AC coupling in steady state — which streaming can only know after
  // a full pass; it accumulates in sample order, the exact sum
  // Waveform::mean_value() computes.  PAM4 has no RFI/restoring stage
  // (both are hard 2-level nonlinearities; the slicers read the CTLE
  // output), and calibrates its slicers on a noise-free replay of the
  // composite stream (channel + crosstalk + CTLE): the middle threshold
  // at the midpoint of the clean range, the outer two at +/- one third of
  // it — the boundaries between four equally spaced levels.  The range
  // midpoint, unlike the mean, is immune to the duty skew of the
  // zero-level lead-in/out, and leaving the noise out keeps its tails
  // from pushing the outer thresholds off the sub-eye boundaries.
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  {
    pipe::Pipeline front;
    add_front(front, /*noise=*/true);
    pipe::Pipeline stat;  // NRZ: on the noisy stream; PAM4: on the TX
    if (pam4) add_front(stat, /*noise=*/false);
    add_ctle(stat);
    pipe::Block blk;
    while (source.produce(blk, block) > 0) {
      const pipe::BlockView noisy = front.process(blk.view());
      for (std::size_t i = 0; i < noisy.size; ++i) {
        min_v = std::min(min_v, noisy[i]);
        max_v = std::max(max_v, noisy[i]);
      }
      const pipe::BlockView v = stat.process(pam4 ? blk.view() : noisy);
      for (std::size_t i = 0; i < v.size; ++i) {
        sum += v[i];
        lo = std::min(lo, v[i]);
        hi = std::max(hi, v[i]);
      }
    }
  }
  result.rx_swing_pp = total > 0 ? max_v - min_v : 0.0;
  std::vector<double> thresholds{rx_.decision_threshold()};
  if (pam4) {
    const double mid = total > 0 ? 0.5 * (lo + hi) : 0.0;
    const double third = total > 0 ? (hi - lo) / 3.0 : 0.0;
    thresholds = {mid - third, mid, mid + third};
  }

  // ---- Pass 2: full datapath into the sampler/CDR sink ---------------------
  source.reset();
  pipe::Pipeline pipeline;
  const auto add_tap = [&]() -> pipe::WaveformTapStage* {
    if (!capture) return nullptr;
    return static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  };
  pipe::WaveformTapStage* tap_tx = add_tap();
  add_front(pipeline, /*noise=*/true);
  pipe::WaveformTapStage* tap_channel = add_tap();
  add_ctle(pipeline);
  pipe::WaveformTapStage* tap_rfi = nullptr;
  if (!pam4) {
    auto rfi = std::make_unique<pipe::RfiFrontEndStage>(
        rx_.rfi_stage(), config_.sample_period());
    rfi->set_mean(total > 0 ? sum / static_cast<double>(total) : 0.0);
    pipeline.add(std::move(rfi));
    tap_rfi = add_tap();
    pipeline.add(std::make_unique<pipe::RestoringStage>(
        rx_.restoring(), config_.sample_period()));
  }
  // The sampler input: restored (NRZ) or equalized (PAM4) — either way it
  // fills the report's "restored" slot.
  pipe::WaveformTapStage* tap_restored = add_tap();

  pipe::SamplerCdrSink sink =
      make_sink(config_, thresholds, {config_.noise_seed}, source);
  pipe::Block blk;
  while (source.produce(blk, block) > 0) {
    sink.consume(pipeline.process(blk.view()));
  }
  sink.finish();

  result.rx = receive(config_, sink, 0);
  if (capture) {
    result.tx_out = tap_tx->take();
    result.channel_out = tap_channel->take();
    if (tap_rfi != nullptr) result.rx.rfi_out = tap_rfi->take();
    result.rx.restored = tap_restored->take();
  }
  result.aligned = result.rx.aligned;
  result.decision_threshold = thresholds[thresholds.size() / 2];

  finalize(payload, result);
  return result;
}

void SerDesLink::finalize_result(const LinkConfig& config,
                                 const std::vector<std::uint8_t>& payload,
                                 LinkResult& result) {
  const auto& got = result.rx.payload;
  const std::size_t n = std::min(payload.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((payload[i] != 0) != (got[i] != 0)) ++result.bit_errors;
  }
  result.payload_bits_compared = n;
  // Bits the receiver never produced (truncated tail) count as errors once
  // they exceed the CDR pipeline allowance of a couple of UIs.  Unaligned
  // runs are excluded: there the whole chunk is already charged as lost by
  // the BER accounting in measure_ber.
  if (result.aligned && payload.size() > got.size()) {
    const std::uint64_t missing = payload.size() - got.size();
    // The allowance is per recovered symbol: PAM4 loses 2 bits per UI the
    // CDR pipeline still holds at end of stream.
    const std::uint64_t allowance =
        kCdrTailAllowanceBits * static_cast<std::uint64_t>(config.bits_per_ui());
    if (missing > allowance) {
      const std::uint64_t lost = missing - allowance;
      result.bit_errors += lost;
      result.payload_bits_compared += lost;
    }
  }
  if (result.payload_bits_compared > 0) {
    result.ber = static_cast<double>(result.bit_errors) /
                 static_cast<double>(result.payload_bits_compared);
  }
  // The capture taps already stop at capture_max_samples.
  if (!config.capture_waveforms) {
    result.tx_out = {};
    result.channel_out = {};
    result.rx.rfi_out = {};
    result.rx.restored = {};
  }
}

LinkResult SerDesLink::run_prbs(std::size_t nbits) {
  return run_prbs(nbits, config_.prbs_order);
}

LinkResult SerDesLink::run_prbs(std::size_t nbits, util::PrbsOrder order) {
  util::PrbsGenerator prbs(order);
  return run(prbs.next_bits(nbits));
}

}  // namespace serdes::core
