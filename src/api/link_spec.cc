#include "api/link_spec.h"

#include <stdexcept>
#include <utility>

namespace serdes::api {

ChannelSpec ChannelSpec::flat(double loss_db) {
  ChannelSpec c;
  c.kind = "flat";
  c.loss_db = loss_db;
  return c;
}

ChannelSpec ChannelSpec::rc(double pole_hz, double dc_loss_db) {
  ChannelSpec c;
  c.kind = "rc";
  c.pole_hz = pole_hz;
  c.loss_db = dc_loss_db;
  return c;
}

ChannelSpec ChannelSpec::lossy_line(double dc_loss_db, double skin_db_at_1ghz,
                                    double dielectric_db_at_1ghz) {
  ChannelSpec c;
  c.kind = "lossy_line";
  c.loss_db = dc_loss_db;
  c.skin_loss_db_at_1ghz = skin_db_at_1ghz;
  c.dielectric_loss_db_at_1ghz = dielectric_db_at_1ghz;
  return c;
}

ChannelSpec ChannelSpec::fir(std::vector<double> taps, int samples_per_tap) {
  ChannelSpec c;
  c.kind = "fir";
  c.fir_taps = std::move(taps);
  c.fir_samples_per_tap = samples_per_tap;
  return c;
}

ChannelSpec ChannelSpec::cascade(std::vector<ChannelSpec> stages) {
  ChannelSpec c;
  c.kind = "composite";
  c.stages = std::move(stages);
  return c;
}

LinkSpec LinkSpec::paper_default() { return LinkSpec{}; }

namespace {

/// `path` locates `ch` within the owning LinkSpec ("channel",
/// "channel.stages[1]", ...), so findings can name the exact member.
LinkSpec::Issue validate_channel(const ChannelSpec& ch, const std::string& path,
                                 int depth) {
  if (ch.kind.empty()) return {path + ".kind", "channel kind is empty"};
  if (depth > 4) {
    return {path, "composite channel nested deeper than 4 levels"};
  }
  if (ch.kind == "flat" && !(ch.loss_db >= 0.0)) {
    return {path + ".loss_db", "flat channel loss must be non-negative"};
  }
  if (ch.kind == "rc" && !(ch.pole_hz > 0.0)) {
    return {path + ".pole_hz", "rc channel pole must be positive"};
  }
  if (ch.kind == "fir" && ch.fir_taps.empty()) {
    return {path + ".fir_taps", "fir channel needs at least one tap"};
  }
  if (ch.kind == "composite") {
    if (ch.stages.empty()) {
      return {path + ".stages", "composite channel needs at least one stage"};
    }
    for (std::size_t i = 0; i < ch.stages.size(); ++i) {
      auto issue = validate_channel(
          ch.stages[i], path + ".stages[" + std::to_string(i) + "]",
          depth + 1);
      if (!issue.ok()) return issue;
    }
  }
  return {};
}

}  // namespace

LinkSpec::Issue LinkSpec::first_issue() const {
  if (!(bit_rate_hz > 0.0)) return {"bit_rate_hz", "must be positive"};
  if (samples_per_ui < 2) return {"samples_per_ui", "must be at least 2"};
  if (modulation != "nrz" && modulation != "pam4") {
    return {"modulation", "must be one of 'nrz', 'pam4'"};
  }
  if (modulation == "pam4") {
    if (tx_ffe_deemphasis != 0.0) {
      return {"tx_ffe_deemphasis",
              "the 2-level TX FFE is incompatible with pam4"};
    }
    if (preamble_bits % 2 != 0) {
      return {"preamble_bits", "must be even under pam4 (2 bits per symbol)"};
    }
  }
  if (auto issue = validate_channel(channel, "channel", 0); !issue.ok()) {
    return issue;
  }
  if (!(noise_rms_v >= 0.0)) return {"noise_rms_v", "must be non-negative"};
  if (!(noise_reference_bandwidth_hz > 0.0)) {
    return {"noise_reference_bandwidth_hz", "must be positive"};
  }
  if (!(random_jitter_s >= 0.0)) {
    return {"random_jitter_s", "must be non-negative"};
  }
  if (!(sinusoidal_jitter_s >= 0.0)) {
    return {"sinusoidal_jitter_s", "must be non-negative"};
  }
  if (sinusoidal_jitter_s > 0.0 && !(sj_freq_ratio > 0.0)) {
    return {"sj_freq_ratio", "must be positive when sinusoidal jitter is on"};
  }
  if (cdr_oversampling < 2) return {"cdr_oversampling", "must be at least 2"};
  if (cdr_window_uis < 1) return {"cdr_window_uis", "must be at least 1"};
  if (cdr_glitch_filter_radius < 0) {
    return {"cdr_glitch_filter_radius", "must be non-negative"};
  }
  if (cdr_jitter_hysteresis < 1) {
    return {"cdr_jitter_hysteresis", "must be at least 1"};
  }
  if (!(tx_ffe_deemphasis >= 0.0) || tx_ffe_deemphasis >= 0.5) {
    return {"tx_ffe_deemphasis", "must be in [0, 0.5)"};
  }
  if (!(rx_ctle_boost_db >= 0.0)) {
    return {"rx_ctle_boost_db", "must be non-negative"};
  }
  if (rx_ctle_boost_db > 0.0 && !(rx_ctle_pole_hz > 0.0)) {
    return {"rx_ctle_pole_hz", "must be positive when the CTLE is enabled"};
  }
  if (dfe_taps.size() > 8) {
    return {"dfe_taps", "at most 8 post-cursor taps are supported"};
  }
  for (std::size_t i = 0; i < dfe_taps.size(); ++i) {
    const double tap = dfe_taps[i];
    if (!(tap > -1.8) || !(tap < 1.8)) {
      return {"dfe_taps[" + std::to_string(i) + "]",
              "must be a finite voltage within the 1.8 V supply"};
    }
  }
  if (eq != "fixed" && eq != "trained") {
    return {"eq", "must be one of 'fixed', 'trained'"};
  }
  if (eq == "trained" && (training_uis < 256 || training_uis > (1 << 20))) {
    return {"training_uis", "must be in [256, 1048576]"};
  }
  if (preamble_bits < 8) return {"preamble_bits", "must be at least 8"};
  if (payload_bits == 0) return {"payload_bits", "must be positive"};
  if (chunk_bits == 0) return {"chunk_bits", "must be positive"};
  if (stream_block_samples == 0) {
    return {"stream_block_samples", "must be positive"};
  }
  if (lane_batch < 1 || lane_batch > 64) {
    return {"lane_batch", "must be in [1, 64]"};
  }
  if (analysis != "mc" && analysis != "stat" && analysis != "both") {
    return {"analysis", "must be one of 'mc', 'stat', 'both'"};
  }
  if (!(stat_target_ber > 0.0) || stat_target_ber >= 0.5) {
    return {"stat_target_ber", "must be in (0, 0.5)"};
  }
  return {};
}

std::string LinkSpec::validate() const {
  const Issue issue = first_issue();
  if (issue.ok()) return {};
  return issue.field + ": " + issue.message;
}

void LinkSpec::validate_or_throw() const {
  if (auto err = validate(); !err.empty()) {
    throw std::invalid_argument("LinkSpec '" + name + "': " + err);
  }
}

core::LinkConfig LinkSpec::to_link_config() const {
  validate_or_throw();
  core::LinkConfig cfg = core::LinkConfig::paper_default();
  cfg.bit_rate = util::Hertz{bit_rate_hz};
  cfg.samples_per_ui = samples_per_ui;
  cfg.modulation = modulation == "pam4"
                       ? core::LinkConfig::Modulation::kPam4
                       : core::LinkConfig::Modulation::kNrz;

  cfg.channel_noise_rms = noise_rms_v;
  cfg.noise_reference_bandwidth = util::Hertz{noise_reference_bandwidth_hz};
  cfg.rx_random_jitter = util::Second{random_jitter_s};
  cfg.rx_sinusoidal_jitter = util::Second{sinusoidal_jitter_s};
  cfg.sj_freq_ratio = sj_freq_ratio;
  cfg.ppm_offset = ppm_offset;
  cfg.rx_phase_offset_ui = rx_phase_offset_ui;

  cfg.cdr.oversampling = cdr_oversampling;
  cfg.cdr.window_uis = cdr_window_uis;
  cfg.cdr.glitch_filter_radius = cdr_glitch_filter_radius;
  cfg.cdr.jitter_hysteresis = cdr_jitter_hysteresis;

  cfg.tx_ffe_deemphasis = tx_ffe_deemphasis;
  cfg.rx_ctle_boost = util::Decibel{rx_ctle_boost_db};
  cfg.rx_ctle_pole = util::Hertz{rx_ctle_pole_hz};
  cfg.dfe_taps = dfe_taps;

  cfg.framing.preamble_bits = preamble_bits;
  cfg.prbs_order = prbs_order;
  cfg.noise_seed = seed;
  cfg.capture_waveforms = capture_waveforms;
  cfg.stream_block_samples =
      static_cast<std::size_t>(stream_block_samples);
  cfg.lane_batch = lane_batch;
  cfg.dsp = dsp;
  cfg.analysis = analysis == "stat"   ? core::LinkConfig::Analysis::kStatistical
                 : analysis == "both" ? core::LinkConfig::Analysis::kBoth
                                      : core::LinkConfig::Analysis::kMonteCarlo;
  return cfg;
}

}  // namespace serdes::api
