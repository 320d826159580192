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
  const std::uint64_t noise_run_seed =
      config_.noise_seed + 100 + run_counter_++;
  return config_.modulation == LinkConfig::Modulation::kPam4
             ? run_streaming_pam4(payload, noise_run_seed)
             : run_streaming(payload, noise_run_seed);
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

LinkResult SerDesLink::run_streaming(const std::vector<std::uint8_t>& payload,
                                     std::uint64_t noise_run_seed) {
  LinkResult result;
  result.payload_bits_sent = payload.size();

  const std::vector<std::uint8_t> bits = tx_.wire_bits(payload);
  const int spu = config_.samples_per_ui;
  const util::Second ui = config_.unit_interval();
  const util::Second rise = tx_.driver().output_rise_time();

  // Per-bit launch levels and stream time base, matching the whole-waveform
  // TX exactly: plain NRZ carries the driver delay (as
  // Transmitter::transmit_bits does), the FFE path launches the
  // pre-distorted levels at t0 = 0 (as TxFfe::shape does).
  std::vector<double> levels(bits.size());
  util::Second stream_t0 = util::seconds(0.0);
  double fill = 0.0;
  if (config_.tx_ffe_deemphasis != 0.0) {
    const channel::TxFfe ffe = channel::TxFfe::de_emphasis(
        config_.tx_ffe_deemphasis, config_.driver.vdd);
    levels = ffe.levels(bits);
  } else {
    const double vdd = config_.driver.vdd.value();
    for (std::size_t i = 0; i < bits.size(); ++i) {
      levels[i] = bits[i] ? vdd : 0.0;
    }
    stream_t0 = tx_.driver().total_delay();
  }

  // Crosstalk paths are built from the (pre-move) launch levels; one
  // private set per pipeline pass so pass state never leaks across passes.
  std::vector<pipe::XtalkInjectStage::Path> xtalk_pass1 =
      build_xtalk_paths(config_, *channel_, levels);
  std::vector<pipe::XtalkInjectStage::Path> xtalk_pass2 =
      build_xtalk_paths(config_, *channel_, levels);

  pipe::LevelPulseSource source(std::move(levels), ui, spu, rise, stream_t0,
                                fill);
  const std::uint64_t total = source.total_samples();
  const util::Second dt = source.dt();
  const std::size_t block =
      std::max<std::size_t>(1, config_.stream_block_samples);
  const double sigma = per_sample_noise_sigma(config_);
  const bool use_ctle = config_.rx_ctle_boost.value() > 0.0;
  const bool capture = config_.capture_waveforms;
  const std::size_t capture_cap = config_.capture_max_samples > 0
                                      ? config_.capture_max_samples
                                      : static_cast<std::size_t>(-1);

  // ---- Pass 1: DC mean and swing over the receiver input -------------------
  // The RFI front end subtracts the whole-stream mean (the AC coupling in
  // steady state); streaming can only know it after a full pass.  The first
  // pass runs the cheap front half of the datapath (TX levels, channel
  // IIR/FIR state, noise, CTLE) block by block, accumulating the mean in
  // sample order — the exact sum Waveform::mean_value() computes —
  // plus the pre-CTLE min/max for rx_swing_pp.  The second pass re-runs the
  // same deterministic front half and carries on through the RFI, restoring
  // stage, sampler and CDR.
  double sum = 0.0;
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  {
    // Reuse the exact stage implementations pass 2 runs, so the two passes
    // cannot drift apart: front = channel + noise (the swing point), then
    // the optional CTLE (the mean point).
    pipe::Pipeline front;
    front.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
    if (!xtalk_pass1.empty()) {
      front.add(std::make_unique<pipe::XtalkInjectStage>(
          std::move(xtalk_pass1), ui, spu, rise, stream_t0));
    }
    front.add(std::make_unique<pipe::AwgnStage>(sigma, noise_run_seed));
    pipe::Pipeline eq;
    if (use_ctle) {
      eq.add(std::make_unique<pipe::CtleStage>(
          config_.rx_ctle_boost, config_.rx_ctle_pole,
          config_.sample_period()));
    }
    pipe::Block blk;
    while (source.produce(blk, block) > 0) {
      const pipe::BlockView noisy = front.process(blk.view());
      const pipe::BlockView rx_in = eq.process(noisy);
      if (rx_in.data == noisy.data) {
        // No CTLE: swing and mean read the same samples — one traversal
        // (the accumulation order, and thus the mean, is unchanged).
        for (std::size_t i = 0; i < noisy.size; ++i) {
          const double v = noisy[i];
          min_v = std::min(min_v, v);
          max_v = std::max(max_v, v);
          sum += v;
        }
      } else {
        for (std::size_t i = 0; i < noisy.size; ++i) {
          min_v = std::min(min_v, noisy[i]);
          max_v = std::max(max_v, noisy[i]);
        }
        for (std::size_t i = 0; i < rx_in.size; ++i) sum += rx_in[i];
      }
    }
  }
  result.rx_swing_pp = total > 0 ? max_v - min_v : 0.0;
  const double mean = total > 0 ? sum / static_cast<double>(total) : 0.0;

  // ---- Pass 2: full datapath into the sampler/CDR sink ---------------------
  source.reset();
  pipe::Pipeline pipeline;
  pipeline.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
  if (!xtalk_pass2.empty()) {
    pipeline.add(std::make_unique<pipe::XtalkInjectStage>(
        std::move(xtalk_pass2), ui, spu, rise, stream_t0));
  }
  pipeline.add(std::make_unique<pipe::AwgnStage>(sigma, noise_run_seed));
  pipe::WaveformTapStage* tap_channel = nullptr;
  pipe::WaveformTapStage* tap_rfi = nullptr;
  pipe::WaveformTapStage* tap_restored = nullptr;
  if (capture) {
    tap_channel = static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  }
  if (use_ctle) {
    pipeline.add(std::make_unique<pipe::CtleStage>(
        config_.rx_ctle_boost, config_.rx_ctle_pole, config_.sample_period()));
  }
  auto rfi_stage = std::make_unique<pipe::RfiFrontEndStage>(
      rx_.rfi_stage(), config_.sample_period());
  rfi_stage->set_mean(mean);
  pipeline.add(std::move(rfi_stage));
  if (capture) {
    tap_rfi = static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  }
  pipeline.add(std::make_unique<pipe::RestoringStage>(
      rx_.restoring(), config_.sample_period()));
  if (capture) {
    tap_restored = static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  }

  pipe::SamplerCdrSink::Config sink_cfg;
  sink_cfg.bit_rate = config_.bit_rate;
  sink_cfg.oversampling = config_.cdr.oversampling;
  sink_cfg.phase_offset = util::seconds(config_.rx_phase_offset_ui *
                                        config_.unit_interval().value());
  sink_cfg.ppm_offset = config_.ppm_offset;
  sink_cfg.jitter.random_rms = config_.rx_random_jitter;
  sink_cfg.jitter.sinusoidal_amplitude = config_.rx_sinusoidal_jitter;
  sink_cfg.jitter.sinusoidal_freq =
      util::hertz(config_.sj_freq_ratio * config_.bit_rate.value());
  sink_cfg.jitter.seed = config_.noise_seed + 1;
  sink_cfg.sampler = config_.sampler;
  sink_cfg.sampler.threshold = rx_.decision_threshold();
  sink_cfg.sampler.seed = config_.noise_seed + 2;
  sink_cfg.dfe_taps = config_.dfe_taps;
  sink_cfg.cdr = config_.cdr;
  sink_cfg.total_samples = total;
  sink_cfg.stream_t0 = stream_t0;
  sink_cfg.dt = dt;
  sink_cfg.block_samples = block;
  pipe::SamplerCdrSink sink(sink_cfg);

  std::vector<double> tx_capture;
  pipe::Block blk;
  while (source.produce(blk, block) > 0) {
    const pipe::BlockView tx_view = blk.view();
    if (capture && tx_capture.size() < capture_cap) {
      const std::size_t take =
          std::min(capture_cap - tx_capture.size(), tx_view.size);
      tx_capture.insert(tx_capture.end(), tx_view.data, tx_view.data + take);
    }
    sink.consume(pipeline.process(tx_view));
  }
  sink.finish();

  ReceiveResult rx;
  rx.recovered_bits = sink.cdr().recovered();
  rx.payload = digital::deframe_stream(rx.recovered_bits, config_.framing);
  rx.aligned = !rx.payload.empty();
  rx.frames = digital::Deserializer::deserialize(rx.payload);
  rx.cdr_decision_phase = sink.cdr().decision_phase();
  rx.cdr_phase_updates = sink.cdr().phase_updates();
  rx.metastable_samples = sink.metastable_count();
  if (capture) {
    result.tx_out = analog::Waveform{stream_t0, dt, std::move(tx_capture)};
    result.channel_out = tap_channel->take();
    rx.rfi_out = tap_rfi->take();
    rx.restored = tap_restored->take();
  }
  result.rx = std::move(rx);
  result.aligned = result.rx.aligned;
  result.decision_threshold = rx_.decision_threshold();

  finalize(payload, result);
  return result;
}

LinkResult SerDesLink::run_streaming_pam4(
    const std::vector<std::uint8_t>& payload, std::uint64_t noise_run_seed) {
  LinkResult result;
  result.payload_bits_sent = payload.size();

  const std::vector<std::uint8_t> bits = tx_.wire_bits(payload);
  const int spu = config_.samples_per_ui;
  const util::Second ui = config_.unit_interval();  // PAM4: symbol period
  const util::Second rise = tx_.driver().output_rise_time();
  const double vdd = config_.driver.vdd.value();
  const double step = vdd / 3.0;

  // Gray-map bit pairs (MSB first) onto the 4 launch levels, two bits per
  // symbol: (0,0)->0, (0,1)->1, (1,1)->2, (1,0)->3 in ascending voltage,
  // so every slicer error against an adjacent level costs exactly one bit.
  // The alternating-1010 preamble would gray-map to a constant symbol 3
  // (no edges — the CDR could never lock), so the preamble region instead
  // launches alternating full-swing 3,0 symbols; the deframer aligns on
  // the sync word, not the preamble content, so recovery is unaffected.
  const std::size_t preamble_syms =
      std::min<std::size_t>(
          static_cast<std::size_t>(std::max(0, config_.framing.preamble_bits)),
          bits.size()) /
      2;
  const std::size_t nsym = (bits.size() + 1) / 2;
  std::vector<double> levels(nsym);
  for (std::size_t s = 0; s < nsym; ++s) {
    if (s < preamble_syms) {
      levels[s] = (s % 2 == 0) ? vdd : 0.0;
      continue;
    }
    const bool msb = bits[2 * s] != 0;
    const bool lsb = 2 * s + 1 < bits.size() && bits[2 * s + 1] != 0;
    const int symbol = msb ? (lsb ? 2 : 3) : (lsb ? 1 : 0);
    levels[s] = static_cast<double>(symbol) * step;
  }
  const util::Second stream_t0 = tx_.driver().total_delay();

  std::vector<pipe::XtalkInjectStage::Path> xtalk_pass1 =
      build_xtalk_paths(config_, *channel_, levels);
  std::vector<pipe::XtalkInjectStage::Path> xtalk_cal =
      build_xtalk_paths(config_, *channel_, levels);
  std::vector<pipe::XtalkInjectStage::Path> xtalk_pass2 =
      build_xtalk_paths(config_, *channel_, levels);

  pipe::LevelPulseSource source(std::move(levels), ui, spu, rise, stream_t0,
                                0.0);
  const std::uint64_t total = source.total_samples();
  const util::Second dt = source.dt();
  const std::size_t block =
      std::max<std::size_t>(1, config_.stream_block_samples);
  const double sigma = per_sample_noise_sigma(config_);
  const bool use_ctle = config_.rx_ctle_boost.value() > 0.0;
  const bool capture = config_.capture_waveforms;
  const std::size_t capture_cap = config_.capture_max_samples > 0
                                      ? config_.capture_max_samples
                                      : static_cast<std::size_t>(-1);

  // ---- Pass 1: slicer calibration over the equalized stream ----------------
  // There is no RFI/restoring stage in the PAM4 path (both are hard 2-level
  // nonlinearities); the slicers read the CTLE output directly.  Their
  // thresholds come from a noise-free replay of the composite stream
  // (channel + crosstalk + CTLE, no AWGN): the middle threshold at the
  // midpoint of the observed clean range, the outer two at +/- one third
  // of it — the boundaries between four equally spaced levels.  The range
  // midpoint, unlike the stream mean, is immune to the duty skew the
  // leading/trailing zero-level regions introduce, and leaving the noise
  // out keeps its tails from inflating the range (and so pushing the
  // outer thresholds off the sub-eye boundaries).  The pre-CTLE noisy
  // min/max feed rx_swing_pp exactly as in the NRZ path.
  double min_pre = std::numeric_limits<double>::infinity();
  double max_pre = -std::numeric_limits<double>::infinity();
  double min_post = std::numeric_limits<double>::infinity();
  double max_post = -std::numeric_limits<double>::infinity();
  {
    pipe::Pipeline front;
    front.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
    if (!xtalk_pass1.empty()) {
      front.add(std::make_unique<pipe::XtalkInjectStage>(
          std::move(xtalk_pass1), ui, spu, rise, stream_t0));
    }
    front.add(std::make_unique<pipe::AwgnStage>(sigma, noise_run_seed));
    pipe::Pipeline cal;
    cal.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
    if (!xtalk_cal.empty()) {
      cal.add(std::make_unique<pipe::XtalkInjectStage>(
          std::move(xtalk_cal), ui, spu, rise, stream_t0));
    }
    if (use_ctle) {
      cal.add(std::make_unique<pipe::CtleStage>(
          config_.rx_ctle_boost, config_.rx_ctle_pole,
          config_.sample_period()));
    }
    pipe::Block blk;
    while (source.produce(blk, block) > 0) {
      const pipe::BlockView noisy = front.process(blk.view());
      for (std::size_t i = 0; i < noisy.size; ++i) {
        min_pre = std::min(min_pre, noisy[i]);
        max_pre = std::max(max_pre, noisy[i]);
      }
      const pipe::BlockView clean = cal.process(blk.view());
      for (std::size_t i = 0; i < clean.size; ++i) {
        const double v = clean[i];
        min_post = std::min(min_post, v);
        max_post = std::max(max_post, v);
      }
    }
  }
  result.rx_swing_pp = total > 0 ? max_pre - min_pre : 0.0;
  const double mid = total > 0 ? 0.5 * (min_post + max_post) : 0.0;
  const double third = total > 0 ? (max_post - min_post) / 3.0 : 0.0;

  // ---- Pass 2: full datapath into the PAM4 sampler/CDR sink ----------------
  source.reset();
  pipe::Pipeline pipeline;
  pipeline.add(std::make_unique<pipe::ChannelStage>(channel_->open_stream()));
  if (!xtalk_pass2.empty()) {
    pipeline.add(std::make_unique<pipe::XtalkInjectStage>(
        std::move(xtalk_pass2), ui, spu, rise, stream_t0));
  }
  pipeline.add(std::make_unique<pipe::AwgnStage>(sigma, noise_run_seed));
  pipe::WaveformTapStage* tap_channel = nullptr;
  pipe::WaveformTapStage* tap_eq = nullptr;
  if (capture) {
    tap_channel = static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  }
  if (use_ctle) {
    pipeline.add(std::make_unique<pipe::CtleStage>(
        config_.rx_ctle_boost, config_.rx_ctle_pole, config_.sample_period()));
  }
  if (capture) {
    // The equalized stream is what the slicers see — it fills the report's
    // "restored" slot (there is no restoring stage under PAM4).
    tap_eq = static_cast<pipe::WaveformTapStage*>(&pipeline.add(
        std::make_unique<pipe::WaveformTapStage>(capture_cap)));
  }

  pipe::PamSamplerCdrSink::Config sink_cfg;
  sink_cfg.symbol_rate =
      util::hertz(config_.bit_rate.value() /
                  static_cast<double>(config_.bits_per_ui()));
  sink_cfg.oversampling = config_.cdr.oversampling;
  sink_cfg.phase_offset = util::seconds(config_.rx_phase_offset_ui *
                                        config_.unit_interval().value());
  sink_cfg.ppm_offset = config_.ppm_offset;
  sink_cfg.jitter.random_rms = config_.rx_random_jitter;
  sink_cfg.jitter.sinusoidal_amplitude = config_.rx_sinusoidal_jitter;
  sink_cfg.jitter.sinusoidal_freq =
      util::hertz(config_.sj_freq_ratio * config_.bit_rate.value());
  sink_cfg.jitter.seed = config_.noise_seed + 1;
  sink_cfg.sampler = config_.sampler;
  sink_cfg.sampler.seed = config_.noise_seed + 2;
  sink_cfg.threshold_low = mid - third;
  sink_cfg.threshold_mid = mid;
  sink_cfg.threshold_high = mid + third;
  sink_cfg.extra_thresholds = config_.pam4_extra_thresholds;
  sink_cfg.dfe_taps = config_.dfe_taps;
  sink_cfg.cdr = config_.cdr;
  sink_cfg.total_samples = total;
  sink_cfg.stream_t0 = stream_t0;
  sink_cfg.dt = dt;
  sink_cfg.block_samples = block;
  pipe::PamSamplerCdrSink sink(sink_cfg);

  std::vector<double> tx_capture;
  pipe::Block blk;
  while (source.produce(blk, block) > 0) {
    const pipe::BlockView tx_view = blk.view();
    if (capture && tx_capture.size() < capture_cap) {
      const std::size_t take =
          std::min(capture_cap - tx_capture.size(), tx_view.size);
      tx_capture.insert(tx_capture.end(), tx_view.data, tx_view.data + take);
    }
    sink.consume(pipeline.process(tx_view));
  }
  sink.finish();

  ReceiveResult rx;
  rx.recovered_bits = sink.recovered_bits();
  rx.payload = digital::deframe_stream(rx.recovered_bits, config_.framing);
  rx.aligned = !rx.payload.empty();
  rx.frames = digital::Deserializer::deserialize(rx.payload);
  rx.cdr_decision_phase = sink.cdr().decision_phase();
  rx.cdr_phase_updates = sink.cdr().phase_updates();
  rx.metastable_samples = sink.metastable_count();
  if (capture) {
    result.tx_out = analog::Waveform{stream_t0, dt, std::move(tx_capture)};
    result.channel_out = tap_channel->take();
    rx.restored = tap_eq->take();
  }
  result.rx = std::move(rx);
  result.aligned = result.rx.aligned;
  result.decision_threshold = mid;

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
