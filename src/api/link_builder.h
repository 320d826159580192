// Fluent authoring of LinkSpecs and construction of runnable links.
//
//   auto report = api::Simulator().run(api::LinkBuilder()
//                                          .name("fig8")
//                                          .bit_rate(util::gigahertz(2.0))
//                                          .flat_channel(util::decibels(34.0))
//                                          .payload_bits(100000)
//                                          .build_spec());
//
// The builder starts from the paper's operating point, so call sites name
// only what their scenario changes.  `build_link()` lowers the spec into a
// core::SerDesLink through the ChannelFactory for callers that want to
// drive the link object directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/link_spec.h"
#include "core/link.h"
#include "util/units.h"

namespace serdes::api {

class LinkBuilder {
 public:
  /// Starts from LinkSpec::paper_default().
  LinkBuilder() = default;
  /// Starts from an existing spec (e.g. to derive one sweep point).  The
  /// spec's recorded capture_waveforms choice is authoritative: build_link()
  /// honors it instead of applying the inspectable-by-default rule.
  explicit LinkBuilder(LinkSpec spec)
      : spec_(std::move(spec)), capture_set_explicitly_(true) {}

  LinkBuilder& name(std::string n);
  LinkBuilder& bit_rate(util::Hertz rate);
  LinkBuilder& samples_per_ui(int samples);
  /// Line code: "nrz" (default) or "pam4" (see LinkSpec::modulation).
  LinkBuilder& modulation(std::string m);

  LinkBuilder& channel(ChannelSpec ch);
  LinkBuilder& flat_channel(util::Decibel loss);

  LinkBuilder& noise_rms(double volts);
  LinkBuilder& noise_reference_bandwidth(util::Hertz bw);
  LinkBuilder& random_jitter(util::Second rms);
  LinkBuilder& sinusoidal_jitter(util::Second amplitude,
                                 double freq_ratio = 0.04);
  LinkBuilder& ppm_offset(double ppm);
  LinkBuilder& rx_phase_offset_ui(double ui);

  LinkBuilder& cdr_oversampling(int factor);
  LinkBuilder& cdr_window(int uis);
  LinkBuilder& cdr_glitch_filter(int radius);
  LinkBuilder& cdr_jitter_hysteresis(int windows);

  LinkBuilder& tx_ffe_deemphasis(double alpha);
  LinkBuilder& rx_ctle(util::Decibel boost,
                       util::Hertz pole = util::megahertz(700.0));
  /// DFE post-cursor taps in volts at the sampler's summing node (tap k
  /// feeds back the decision from k+1 UIs ago); empty disables the DFE.
  LinkBuilder& dfe(std::vector<double> taps);
  /// Equalizer adaptation: "fixed" (default) or "trained" (sign-sign LMS
  /// over a training preamble; see LinkSpec::eq).
  LinkBuilder& eq(std::string mode);
  /// Training preamble length in UIs for eq("trained").
  LinkBuilder& training_uis(int uis);

  LinkBuilder& preamble_bits(int bits);
  LinkBuilder& prbs(util::PrbsOrder order);
  LinkBuilder& payload_bits(std::uint64_t bits);
  LinkBuilder& chunk_bits(std::uint64_t bits);
  LinkBuilder& seed(std::uint64_t seed);
  /// Samples per streaming block (memory knob; results invariant).
  LinkBuilder& stream_block_samples(std::uint64_t samples);
  /// Lane-tile width for batched multi-lane execution in run_batch /
  /// sweeps (throughput knob; reports bit-identical to scalar).  [1, 64].
  LinkBuilder& lane_batch(int lanes);
  /// Opt into the dsp block-convolution engine (overlap-save FFT above the
  /// measured crossover) for fir / lossy_line channels.  Bit decisions
  /// match the exact kernels; waveforms agree to <= 1e-12 RMS.
  LinkBuilder& dsp(bool on = true);
  /// Analysis engine: "mc" (default), "stat" (analytical StatEye engine
  /// only — instant deep-BER bathtubs, no bit stream) or "both" (MC plus
  /// the stat engine, cross-checked against each other).
  LinkBuilder& analysis(std::string mode);
  /// BER level the stat engine quotes contours and margins at.
  LinkBuilder& stat_target_ber(double ber);
  /// Explicit capture choice: honored by build_spec() and build_link()
  /// alike.  When never called, build_link() defaults capture ON (a link
  /// object is for inspection) while specs stay lean for Simulator sweeps.
  LinkBuilder& capture_waveforms(bool capture = true);

  /// The spec as authored so far (not yet validated).
  [[nodiscard]] const LinkSpec& spec() const { return spec_; }

  /// Validated copy of the spec; throws std::invalid_argument on problems.
  [[nodiscard]] LinkSpec build_spec() const;

  /// The core configuration the spec lowers to, verbatim — including the
  /// spec's capture_waveforms (lean by default).  Unlike build_link(),
  /// this never flips capture on; opt in explicitly if you will read
  /// waveforms off a link you construct from this config.
  [[nodiscard]] core::LinkConfig build_config() const;

  /// A runnable link: configuration plus factory-built channel.  Unless
  /// capture_waveforms() was called explicitly, capture defaults on here
  /// (you took the link object to inspect it); capture-free bulk sweeps
  /// belong to Simulator.
  [[nodiscard]] core::SerDesLink build_link() const;

 private:
  LinkSpec spec_{};
  bool capture_set_explicitly_ = false;
};

}  // namespace serdes::api
