// Declarative description of one SerDes link scenario.
//
// The paper's evaluation is a matrix of scenarios — one link swept across
// channel loss (Fig 9), jitter tolerance, RFI/CDR/EQ ablations — and every
// scenario is fully described by a `LinkSpec`: rate, channel kind and
// parameters, impairments, CDR and equalization knobs, and the payload to
// push through.  A spec is plain data (doubles in SI units, strings, no
// owning pointers), so it can be stored in tables, swept programmatically
// and shipped across threads; `api::Simulator` turns specs into results
// and `api::LinkBuilder` offers a fluent way to author them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "util/prbs.h"

namespace serdes::api {

/// Plain-data description of the channel a link runs over.  `kind` names a
/// model registered in `ChannelFactory` ("flat", "rc", "lossy_line", "fir",
/// "composite"); only the parameters that kind reads need to be set.
struct ChannelSpec {
  std::string kind = "flat";

  /// flat: total attenuation; rc / lossy_line: the dc loss term.
  double loss_db = 34.0;

  /// rc: pole frequency of the single-pole trace model.
  double pole_hz = 2.5e9;

  /// lossy_line: skin-effect and dielectric loss coefficients at 1 GHz.
  double skin_loss_db_at_1ghz = 18.0;
  double dielectric_loss_db_at_1ghz = 14.0;

  /// fir: UI-spaced impulse-response taps; `fir_samples_per_tap` <= 0 means
  /// one tap per unit interval at the link's sampling density.
  std::vector<double> fir_taps;
  int fir_samples_per_tap = 0;

  /// composite: stages cascaded in order.
  std::vector<ChannelSpec> stages;

  // ---- Convenience constructors for the built-in kinds ----
  static ChannelSpec flat(double loss_db);
  static ChannelSpec rc(double pole_hz, double dc_loss_db = 0.0);
  static ChannelSpec lossy_line(double dc_loss_db, double skin_db_at_1ghz,
                                double dielectric_db_at_1ghz);
  static ChannelSpec fir(std::vector<double> taps, int samples_per_tap = 0);
  static ChannelSpec cascade(std::vector<ChannelSpec> stages);
};

/// Everything needed to construct and run one link, with the analog blocks
/// held at the paper's design point.  Defaults reproduce the headline
/// operating condition: 2 Gbps PRBS-31 through 34 dB of flat loss.
///
/// When adding a field, also extend `apply_link_field` and `to_json` in
/// api/spec_json.cc — JSON specs, sweep axes and the did-you-mean hints
/// all derive from those two.
struct LinkSpec {
  /// Label carried into the RunReport (sweep axis value, lane name, ...).
  std::string name = "link";

  // ---- Rate / resolution ----
  double bit_rate_hz = 2e9;
  int samples_per_ui = 16;

  // ---- Modulation ----
  /// Line code: "nrz" (default, 1 bit/UI — the paper's datapath) or
  /// "pam4" (2 gray-mapped bits per UI through a 4-level TX source and a
  /// tri-threshold sampler; the symbol rate is bit_rate_hz / 2).  PAM4 is
  /// incompatible with the 2-level TX FFE (`tx_ffe_deemphasis` must stay
  /// 0).
  std::string modulation = "nrz";

  // ---- Channel ----
  ChannelSpec channel{};

  // ---- Impairments ----
  double noise_rms_v = 0.001;
  double noise_reference_bandwidth_hz = 3e9;
  double random_jitter_s = 2e-12;
  double sinusoidal_jitter_s = 0.0;
  double sj_freq_ratio = 0.04;
  double ppm_offset = 0.0;
  double rx_phase_offset_ui = 0.37;

  // ---- CDR knobs ----
  int cdr_oversampling = 5;
  int cdr_window_uis = 32;
  int cdr_glitch_filter_radius = 1;
  int cdr_jitter_hysteresis = 2;

  // ---- Equalization knobs (0 disables) ----
  /// TX FFE de-emphasis alpha in [0, 0.5).
  double tx_ffe_deemphasis = 0.0;
  double rx_ctle_boost_db = 0.0;
  double rx_ctle_pole_hz = 700e6;
  /// Decision-feedback equalizer: post-cursor tap weights (volts at the
  /// sampler's summing node — the restored domain for NRZ, the CTLE
  /// output for PAM4).  Tap k is fed back from the decision k UIs ago;
  /// empty disables the DFE.
  std::vector<double> dfe_taps;
  /// Equalizer adaptation mode: "fixed" (default — the knobs above are
  /// used as written) or "trained" (a sign-sign LMS training preamble of
  /// `training_uis` known symbols adapts the DFE taps — and, when they
  /// saturate or the tail demands it, the TX FFE / CTLE knobs — before
  /// the payload runs; the knobs above become initial values and the
  /// converged settings are reported in RunReport.training).  Training
  /// is deterministic given the seed and runs per lane in batches.
  std::string eq = "fixed";
  /// Length of the "trained" training preamble in UIs (ignored under
  /// eq = "fixed").
  int training_uis = 4096;

  // ---- Framing / payload ----
  int preamble_bits = 256;
  util::PrbsOrder prbs_order = util::PrbsOrder::kPrbs31;
  /// Total payload bits pushed through the link, split into independent
  /// chunks of `chunk_bits` (each chunk gets fresh noise).
  std::uint64_t payload_bits = 4096;
  std::uint64_t chunk_bits = 4096;

  /// Base seed for all stochastic pieces; `Simulator::run_batch` derives a
  /// distinct deterministic seed per lane from it.
  std::uint64_t seed = 1234;

  // ---- Execution ----
  /// Samples per streaming block: every datapath stage holds one block, so
  /// per-lane waveform memory is O(block) instead of O(chunk_bits *
  /// samples_per_ui).  Reports are byte-identical for every block size.
  std::uint64_t stream_block_samples = 16384;
  /// Lane-tile width for batched multi-lane execution: run_batch (and the
  /// sweep runner) group lanes whose specs differ only in name/seed into
  /// SoA tiles of up to this many lanes sharing one instruction stream
  /// (core::LaneLink).  Reports are bit-identical to scalar execution —
  /// this is purely a throughput knob.  Only NRZ "mc" scenarios with
  /// fixed EQ tile; must be in [1, 64].
  int lane_batch = 1;
  /// Opt into the dsp block-convolution engine (overlap-save FFT above the
  /// crossover) for the channel kinds that profit ("fir", "lossy_line",
  /// and composites containing them).  BER/bit decisions match the exact
  /// kernels; waveforms agree to <= 1e-12 RMS.  Off by default: the exact
  /// direct kernels keep results bit-identical across block sizes.
  bool dsp = false;

  // ---- Analysis engine ----
  /// Which engine(s) produce this scenario's results:
  ///   * "mc"   — Monte Carlo bit-stream simulation (default);
  ///   * "stat" — the analytical StatEye-style engine only: closed-form
  ///     ISI/noise/jitter statistics from the single-bit pulse response,
  ///     reaching 1e-15 BER regimes in milliseconds (no bit stream);
  ///   * "both" — Monte Carlo plus the stat engine, with the measured MC
  ///     BER cross-checked against the stat prediction band (the
  ///     golden-report regression tier runs on this mode).
  std::string analysis = "mc";
  /// BER level the stat engine quotes contours and margins at.
  double stat_target_ber = 1e-15;

  /// Opt-in: retain the tx / channel / restored waveforms in the report.
  /// Off by default so batch sweeps don't carry megabytes of samples.
  bool capture_waveforms = false;

  /// The paper's operating point (identical to the defaults; spelled out
  /// for call-site readability).
  static LinkSpec paper_default();

  /// One validation finding: `field` locates the offending spec member
  /// ("bit_rate_hz", "channel.stages[1].fir_taps", ...) so callers that
  /// loaded the spec from a file can point at the exact JSON path;
  /// `message` describes the problem.  An empty message means the spec is
  /// runnable.
  struct Issue {
    std::string field;
    std::string message;
    [[nodiscard]] bool ok() const { return message.empty(); }
  };

  /// The first problem found, with its field path; Issue{} if runnable.
  [[nodiscard]] Issue first_issue() const;

  /// Returns an empty string if the spec is runnable, else a description
  /// of the first problem found ("<field>: <message>").
  [[nodiscard]] std::string validate() const;

  /// Throws std::invalid_argument naming the spec and the first problem.
  void validate_or_throw() const;

  /// Lowers the spec onto the core link configuration (analog blocks at
  /// their paper design point).  Throws std::invalid_argument if
  /// validate() fails.
  [[nodiscard]] core::LinkConfig to_link_config() const;
};

}  // namespace serdes::api
