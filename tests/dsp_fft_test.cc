// DSP block-convolution engine: FFT round trips, overlap-save agreement
// with direct convolution across tap counts and block sizes, exactness of
// the strided direct kernel against per-sample stepping, and end-to-end
// BER equivalence of the dsp channel path.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "analog/filters.h"
#include "api/api.h"
#include "batch_reference.h"
#include "channel/channel.h"
#include "core/link.h"
#include "dsp/convolution.h"
#include "dsp/fft.h"
#include "util/random.h"

namespace serdes {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

/// Reference linear convolution with zero history, accumulated in tap
/// order (the exact summation order of the direct kernels).
std::vector<double> direct_convolve(const std::vector<double>& taps,
                                    const std::vector<double>& x) {
  std::vector<double> out(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < taps.size() && k <= i; ++k) {
      acc += taps[k] * x[i - k];
    }
    out[i] = acc;
  }
  return out;
}

double rms_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

TEST(RealFft, RoundTripRecoversSignal) {
  for (std::size_t n : {2u, 8u, 64u, 1024u, 4096u}) {
    dsp::RealFft fft(n);
    const std::vector<double> x = random_vector(n, 7 + n);
    std::vector<std::complex<double>> spectrum(fft.bins());
    std::vector<double> back(n);
    fft.forward(x.data(), spectrum.data());
    fft.inverse(spectrum.data(), back.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(back[i], x[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RealFft, MatchesNaiveDft) {
  const std::size_t n = 16;
  dsp::RealFft fft(n);
  const std::vector<double> x = random_vector(n, 99);
  std::vector<std::complex<double>> spectrum(fft.bins());
  fft.forward(x.data(), spectrum.data());
  for (std::size_t k = 0; k <= n / 2; ++k) {
    std::complex<double> ref{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2.0 * std::numbers::pi * static_cast<double>(j * k) /
                       static_cast<double>(n);
      ref += x[j] * std::complex<double>(std::cos(a), std::sin(a));
    }
    EXPECT_NEAR(std::abs(ref - spectrum[k]), 0.0, 1e-12) << "bin " << k;
  }
}

TEST(OverlapSave, MatchesDirectConvolutionAcrossTapsAndBlocks) {
  const std::size_t n = 20000;
  for (std::size_t m : {1u, 7u, 64u, 513u}) {
    const std::vector<double> taps = random_vector(m, 11 + m);
    const std::vector<double> x = random_vector(n, 13 + m);
    const std::vector<double> ref = direct_convolve(taps, x);
    for (std::size_t block : {1u, 7u, 4096u}) {
      dsp::OverlapSaveConvolver conv(taps);
      std::vector<double> history(m - 1, 0.0);
      std::vector<double> y(n);
      for (std::size_t i = 0; i < n; i += block) {
        const std::size_t len = std::min(block, n - i);
        conv.process(history.data(), x.data() + i, y.data() + i, len);
      }
      EXPECT_LE(rms_diff(y, ref), 1e-12) << "m=" << m << " block=" << block;
    }
  }
}

TEST(BlockFir, StridedDirectIsBitIdenticalToPerSampleStepping) {
  // The strided kernel skips the zero-stuffed lags; per-sample stepping
  // multiplies them out.  Outputs must still be identical (adding a zero
  // product never changes a sum).
  const std::size_t stride = 16;
  const std::vector<double> taps = {0.1, 0.7, 0.25, -0.1, 0.05};
  std::vector<double> expanded;
  for (double t : taps) {
    expanded.push_back(t);
    for (std::size_t i = 1; i < stride; ++i) expanded.push_back(0.0);
  }
  analog::FirFilter reference(expanded);
  dsp::BlockFir fir(taps, stride);

  const std::vector<double> x = random_vector(4096, 21);
  std::vector<double> got(x.size());
  std::size_t i = 0;
  const std::size_t chunks[] = {1, 7, 100, 988, 3000};
  std::size_t c = 0;
  while (i < x.size()) {
    const std::size_t len = std::min(chunks[c++ % 5], x.size() - i);
    fir.process(x.data() + i, got.data() + i, len);
    i += len;
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_EQ(got[j], reference.step(x[j])) << "sample " << j;
  }
}

TEST(BlockFir, FftPathAgreesWithDirectUnderMixedChunking) {
  const std::vector<double> taps = random_vector(513, 31);
  const std::vector<double> x = random_vector(30000, 37);
  const std::vector<double> ref = direct_convolve(taps, x);
  dsp::BlockFir fir(taps, 1, dsp::BlockFir::Options{/*allow_fft=*/true});
  std::vector<double> y(x.size());
  // Chunk sizes straddling the crossover: the engine mixes FFT and direct
  // segments over one shared history and must stay seamless.
  const std::size_t chunks[] = {5000, 17, 4096, 1, 2048, 8192};
  std::size_t i = 0;
  std::size_t c = 0;
  while (i < x.size()) {
    const std::size_t len = std::min(chunks[c++ % 6], x.size() - i);
    fir.process(x.data() + i, y.data() + i, len);
    i += len;
  }
  EXPECT_LE(rms_diff(y, ref), 1e-12);
}

TEST(DspChannels, WaveformsMatchExactKernelsWithinTolerance) {
  const auto cfg = core::LinkConfig::paper_default();
  util::PrbsGenerator prbs(util::PrbsOrder::kPrbs15);
  const analog::Waveform in = analog::Waveform::nrz(
      prbs.next_bits(512), util::nanoseconds(0.5), 16, 0.0, 1.8,
      util::picoseconds(100.0));

  {
    const std::vector<double> taps = random_vector(200, 41);
    channel::FirChannel exact(taps, 1, /*dsp=*/false);
    channel::FirChannel dsp(taps, 1, /*dsp=*/true);
    const auto a = exact.transmit(in);
    const auto b = dsp.transmit(in);
    EXPECT_LE(rms_diff(a.samples(), b.samples()), 1e-12);
  }
  {
    channel::LossyLineChannel::Params p;
    p.dc_loss_db = 2.0;
    p.skin_loss_db_at_1ghz = 10.0;
    p.dielectric_loss_db_at_1ghz = 8.0;
    channel::LossyLineChannel exact(p, cfg.sample_period(), /*dsp=*/false);
    channel::LossyLineChannel dsp(p, cfg.sample_period(), /*dsp=*/true);
    EXPECT_FALSE(dsp.impulse_taps().empty());
    const auto a = exact.transmit(in);
    const auto b = dsp.transmit(in);
    EXPECT_LE(rms_diff(a.samples(), b.samples()), 1e-12);
  }
}

api::LinkSpec dsp_link_spec() {
  api::LinkSpec spec;
  spec.payload_bits = 4096;
  spec.chunk_bits = 4096;
  spec.prbs_order = util::PrbsOrder::kPrbs15;
  // A long measured-style response so the FFT path actually engages
  // (>= 128 MACs per sample): a decayed main cursor plus reflections.
  std::vector<double> taps(192, 0.0);
  taps[0] = 0.05;
  taps[1] = 0.6;
  taps[2] = 0.2;
  for (std::size_t k = 3; k < taps.size(); ++k) {
    taps[k] = 0.1 * std::exp(-0.05 * static_cast<double>(k));
  }
  spec.channel = api::ChannelSpec::fir(std::move(taps), 1);
  return spec;
}

TEST(DspChannels, BitDecisionsMatchExactPathEndToEnd) {
  api::LinkSpec exact = dsp_link_spec();
  api::LinkSpec dsp = dsp_link_spec();
  dsp.dsp = true;
  const api::Simulator sim;
  const api::RunReport a = sim.run(exact);
  const api::RunReport b = sim.run(dsp);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.aligned, b.aligned);
  EXPECT_EQ(a.cdr_decision_phase, b.cdr_decision_phase);
}

TEST(DspChannels, StreamingMatchesBatchBerWithDspEnabled) {
  api::LinkSpec spec = dsp_link_spec();
  spec.dsp = true;
  const api::RunReport s = api::Simulator().run(spec);
  const api::RunReport b = testing::batch_reference_report(spec);
  EXPECT_EQ(s.bits, b.bits);
  EXPECT_EQ(s.errors, b.errors);
  EXPECT_EQ(s.aligned, b.aligned);
}

}  // namespace
}  // namespace serdes
