// Whole-waveform reference for the streaming NRZ datapath (test-only).
//
// SerDesLink::run streams every Monte Carlo run block by block.  The
// reference below computes the same run the straightforward way — each
// stage materializes the full waveform — from the public components
// (Transmitter / TxFfe, Channel::transmit, AwgnSource, RxCtle,
// Receiver::receive, core::score_payload), with the same seeds and
// the same arithmetic, so the streaming pipeline can be checked against it
// bit for bit.  It covers what the reference chain models: NRZ, fixed EQ
// (TX FFE, RX CTLE), no DFE and no crosstalk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "api/api.h"
#include "channel/equalizer.h"
#include "channel/noise.h"
#include "core/ber.h"
#include "core/eye.h"
#include "core/link.h"
#include "core/receiver.h"
#include "core/transmitter.h"
#include "util/prbs.h"

namespace serdes::testing {

/// One whole-waveform run of `payload`.  `run_index` is the number of runs
/// the equivalent SerDesLink has made before this one (it picks the
/// per-run noise seed, noise_seed + 100 + run_index).
inline core::LinkResult batch_reference_run(
    const core::LinkConfig& config, const channel::Channel& channel,
    const std::vector<std::uint8_t>& payload, std::uint64_t run_index = 0) {
  if (config.modulation != core::LinkConfig::Modulation::kNrz ||
      !config.dfe_taps.empty() || !config.xtalk.empty()) {
    throw std::invalid_argument(
        "batch_reference_run: NRZ without DFE or crosstalk only");
  }
  const core::Transmitter tx(config);
  core::Receiver rx(config);
  core::LinkResult result;
  result.payload_bits_sent = payload.size();

  if (config.tx_ffe_deemphasis != 0.0) {
    const channel::TxFfe ffe = channel::TxFfe::de_emphasis(
        config.tx_ffe_deemphasis, config.driver.vdd);
    result.tx_out =
        ffe.shape(tx.wire_bits(payload), config.bit_rate,
                  config.samples_per_ui, tx.driver().output_rise_time());
  } else {
    result.tx_out = tx.transmit_bits(payload);
  }
  result.channel_out = channel.transmit(result.tx_out);

  channel::AwgnSource noise(core::per_sample_noise_sigma(config),
                            config.noise_seed + 100 + run_index);
  noise.apply(result.channel_out);
  result.rx_swing_pp = result.channel_out.peak_to_peak();

  if (config.rx_ctle_boost.value() > 0.0) {
    const channel::RxCtle ctle(config.rx_ctle_boost, config.rx_ctle_pole,
                               config.sample_period());
    result.rx = rx.receive(ctle.equalize(result.channel_out));
  } else {
    result.rx = rx.receive(result.channel_out);
  }
  result.aligned = result.rx.aligned;
  result.decision_threshold = rx.decision_threshold();

  // The streaming taps exist only while capture is on, and retain only the
  // first capture_max_samples samples.
  for (analog::Waveform* w : {&result.tx_out, &result.channel_out,
                              &result.rx.rfi_out, &result.rx.restored}) {
    if (!config.capture_waveforms) {
      *w = {};
    } else if (config.capture_max_samples > 0 &&
               w->size() > config.capture_max_samples) {
      w->samples().resize(config.capture_max_samples);
    }
  }
  core::score_payload(config, payload, result);
  return result;
}

/// api::Simulator::run's Monte Carlo report for an NRZ "mc" spec with fixed
/// EQ, built chunk by chunk from batch_reference_run with the chunking,
/// BER accounting and first-chunk diagnostics of Simulator::run /
/// core::measure_ber.
inline api::RunReport batch_reference_report(
    const api::LinkSpec& spec, const api::Simulator::Options& options = {}) {
  if (spec.analysis != "mc" || spec.eq != "fixed") {
    throw std::invalid_argument(
        "batch_reference_report: 'mc' specs with fixed EQ only");
  }
  api::RunReport report;
  report.spec = spec;
  report.confidence_level = options.confidence_level;

  core::LinkConfig cfg = spec.to_link_config();
  cfg.capture_waveforms = true;
  cfg.capture_max_samples = static_cast<std::size_t>(
      options.diagnostic_window_uis *
      static_cast<std::uint64_t>(cfg.samples_per_ui));
  const auto channel =
      api::ChannelFactory::instance().create(spec.channel, cfg);

  util::PrbsGenerator prbs(spec.prbs_order);
  std::uint64_t sent = 0;
  std::uint64_t run_index = 0;
  bool aligned = true;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  while (sent < spec.payload_bits) {
    const std::uint64_t n = std::min(spec.chunk_bits, spec.payload_bits - sent);
    sent += n;
    const auto payload = prbs.next_bits(static_cast<std::size_t>(n));
    const core::LinkResult r =
        batch_reference_run(cfg, *channel, payload, run_index);
    if (run_index++ == 0) {
      report.cdr_decision_phase = r.rx.cdr_decision_phase;
      report.cdr_phase_updates = r.rx.cdr_phase_updates;
      report.rx_swing_pp = r.rx_swing_pp;
      report.decision_threshold = r.decision_threshold;
      const core::EyeAnalyzer eye(cfg.bit_rate, options.eye_bins_per_ui);
      report.eye = eye.analyze(r.rx.restored, report.decision_threshold);
      if (spec.capture_waveforms) {
        report.tx_out = r.tx_out;
        report.channel_out = r.channel_out;
        report.restored = r.rx.restored;
      }
      cfg.capture_waveforms = false;
    }
    if (!r.aligned) {
      aligned = false;
      errors += n;
      bits += n;
      continue;
    }
    bits += r.payload_bits_compared;
    errors += r.bit_errors;
  }
  report.aligned = aligned;
  report.bits = bits;
  report.errors = errors;
  if (bits > 0) {
    report.ber = static_cast<double>(errors) / static_cast<double>(bits);
  }
  report.ber_upper_bound =
      core::ber_upper_bound(bits, errors, options.confidence_level);
  return report;
}

}  // namespace serdes::testing
