// Deterministic, fast random number generation for simulations.
//
// All stochastic pieces of the simulator (noise injection, jitter, random
// payloads) draw from an explicitly seeded Rng so that every experiment is
// reproducible run-to-run.  The generator is xoshiro256**, which is far
// faster than std::mt19937_64 and has excellent statistical quality for
// Monte-Carlo style workloads.
//
// Everything on the hot path is defined inline here: the AWGN stage burns
// one gaussian per waveform sample and the sampler/jitter chain several
// per UI, so these must fold into their calling loops.  gaussian() is a
// 256-layer ziggurat — on ~98% of calls one u64 draw, a table compare, a
// multiply and a sign XOR, with no data-dependent jump; the wedge/tail
// rejection (the only transcendental math) is out of line.  Bulk noise
// goes through add_gaussian(), which runs the same step with the state
// held in registers across the whole span.  It replaces the seed repo's
// Box-Muller: the stream of deviates for a given seed differs, but it is
// exactly standard-normal and deterministic, and it costs ~6x less than
// log+sqrt+sincos per pair.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/ziggurat_tables.h"

namespace serdes::util {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64() { return step(state_); }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high bits → double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// Standard normal via the 256-layer ziggurat.  The fast path spends a
  /// single u64: bits 0-7 pick the layer, bit 8 the sign, bits 11-63 the
  /// position — disjoint, so they are independent.
  double gaussian() { return draw<false>(state_); }

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double sigma) {
    return mean + sigma * gaussian();
  }

  /// Bernoulli trial.
  bool chance(double probability) { return uniform() < probability; }

  /// out[i*out_stride] = in[i*in_stride] + gaussian(0.0, sigma) for i in
  /// [0, n): the same values and the same final state as that per-call
  /// loop, bit for bit, but with the generator state in locals for the
  /// whole span (written back only around the rare wedge/tail draw).
  /// `out` may alias `in` with equal strides; strides let one call walk
  /// a single lane of an interleaved lane-major block.
  void add_gaussian(const double* in, double* out, std::size_t n,
                    double sigma, std::size_t in_stride = 1,
                    std::size_t out_stride = 1) {
    std::uint64_t s[4];
    copy_state(state_, s);
    for (std::size_t i = 0; i < n; ++i) {
      // `0.0 +` is gaussian(0.0, sigma)'s mean term; it keeps the sign of
      // a zero sum identical to the per-call form.
      out[i * out_stride] = in[i * in_stride] + (0.0 + sigma * draw<true>(s));
    }
    copy_state(s, state_);
  }

  /// Equal generators produce equal streams from here on.
  bool operator==(const Rng&) const = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256** step on `s`: the member state, or a local copy the
  /// compiler can keep in registers.
  static std::uint64_t step(std::uint64_t (&s)[4]) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  /// Copies a state element by element: a whole-array copy would take the
  /// address of a local state and pin it to the stack.
  static void copy_state(const std::uint64_t (&from)[4],
                         std::uint64_t (&to)[4]) {
    to[0] = from[0];
    to[1] = from[1];
    to[2] = from[2];
    to[3] = from[3];
  }

  /// The one ziggurat step behind gaussian() and add_gaussian(), drawing
  /// from `s`: the member state, or (kLocal) a caller's local copy.  The
  /// fast path applies the sign by XOR-ing bit 8 of `u` into the sign bit
  /// of `x` — exactly `-x`, without a jump on a random bit.  The edge path
  /// draws extra uniforms through the member state, so a local copy is
  /// written back before that call and reloaded after it.  gaussian()
  /// draws from the member state directly: a local copy around a single
  /// draw gets vectorized into mixed-width loads and stores that defeat
  /// store forwarding.
  template <bool kLocal>
  double draw(std::uint64_t (&s)[4]) {
    for (;;) {
      const std::uint64_t u = step(s);
      const std::size_t layer = static_cast<std::size_t>(u & 255u);
      const double x =
          static_cast<double>(u >> 11) * 0x1.0p-53 * zig::kX[layer];
      if (x < zig::kX[layer + 1]) [[likely]] {
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                     ((u & 256u) << 55));
      }
      if constexpr (kLocal) copy_state(s, state_);
      double out;
      const bool accepted = gaussian_edge(layer, x, (u & 256u) != 0, &out);
      if constexpr (kLocal) copy_state(state_, s);
      if (accepted) return out;
    }
  }

  /// Ziggurat slow path: layer-0 tail beyond kR, or the wedge between a
  /// layer's edge and the density.  Returns false to redraw.
  bool gaussian_edge(std::size_t layer, double x, bool negative, double* out);

  std::uint64_t state_[4];
};

}  // namespace serdes::util
