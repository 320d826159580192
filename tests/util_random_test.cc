#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "util/ziggurat_tables.h"

namespace serdes::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(11);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++histogram[static_cast<std::size_t>(v)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 2000, 300);  // roughly uniform
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(3.0, 2.0);
    sum += g;
    sum2 += (g - 3.0) * (g - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.05);
}

TEST(Rng, GaussianTailMass) {
  // The ziggurat's wedge/tail rejection must reproduce the normal tails:
  // P(|x|>3) = 2.700e-3 and P(|x|>4) = 6.33e-5.  Binomial 5-sigma bands
  // for n = 2e6 are ±0.18e-3 and ±2.8e-5; the bounds below sit outside
  // them so a statistically correct generator passes for any seed.
  Rng rng(23);
  const int n = 2000000;
  int tail3 = 0;
  int tail4 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    if (std::fabs(g) > 3.0) ++tail3;
    if (std::fabs(g) > 4.0) ++tail4;
  }
  EXPECT_NEAR(tail3 / static_cast<double>(n), 2.700e-3, 0.2e-3);
  EXPECT_NEAR(tail4 / static_cast<double>(n), 6.33e-5, 3.0e-5);
}

TEST(Rng, GaussianDeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, GaussianStreamIsPinned) {
  // The first deviates of one seed, bit for bit: any change to the
  // ziggurat step (tables, bit layout, sign handling) shows up here.
  const double expected[16] = {
      -0x1.f97295f3eec63p-4, 0x1.5944eae160091p+0, 0x1.0d9e7443912f9p-2,
      0x1.12f06c6322697p-2, 0x1.f851f34ec6585p-1, 0x1.136606cd75245p-3,
      -0x1.ff5af3dff1029p-2, -0x1.b88a6f83e4834p-2, -0x1.087758b5ea944p-1,
      -0x1.0c76aaa23400fp-4, -0x1.3018006b51ac5p-1, -0x1.695f9488483e9p+0,
      0x1.518539b1b72cbp+0, -0x1.2e1a32256dc5ap-1, -0x1.0e86add63d9eap+1,
      -0x1.32135e58a4ec3p-1};
  Rng rng(2024);
  for (const double want : expected) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian()),
              std::bit_cast<std::uint64_t>(want));
  }
}

/// Classifies the next gaussian() draw of `rng` by its first u64, without
/// advancing `rng`: 0 fast path, 1 wedge, 2 tail.
int first_attempt_path(const Rng& rng) {
  Rng peek = rng;
  const std::uint64_t u = peek.next_u64();
  const std::size_t layer = static_cast<std::size_t>(u & 255u);
  const double x = static_cast<double>(u >> 11) * 0x1.0p-53 * zig::kX[layer];
  if (x < zig::kX[layer + 1]) return 0;
  return layer == 0 ? 2 : 1;
}

/// The reference add_gaussian must match: one gaussian(0, sigma) call per
/// sample.  Counts the wedge/tail first attempts it runs into.
void add_gaussian_per_call(Rng& rng, const double* in, double* out,
                           std::size_t n, double sigma, std::size_t in_stride,
                           std::size_t out_stride, int* wedges, int* tails) {
  for (std::size_t i = 0; i < n; ++i) {
    const int path = first_attempt_path(rng);
    *wedges += path == 1;
    *tails += path == 2;
    out[i * out_stride] = in[i * in_stride] + rng.gaussian(0.0, sigma);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 0.25 * std::sin(0.01 * i);
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(Rng, AddGaussianMatchesPerCallLoopInPlace) {
  // Long enough to run through both slow paths: the wedge on ~1.5% of draws
  // and the layer-0 tail on ~0.03%.
  const std::size_t n = 200000;
  const double sigma = 0.003;
  std::vector<double> bulk = ramp(n);
  std::vector<double> loop = bulk;
  Rng a(31);
  Rng b(31);
  a.add_gaussian(bulk.data(), bulk.data(), n, sigma);
  int wedges = 0;
  int tails = 0;
  add_gaussian_per_call(b, loop.data(), loop.data(), n, sigma, 1, 1, &wedges,
                        &tails);
  EXPECT_TRUE(same_bits(bulk, loop));
  EXPECT_TRUE(a == b);
  EXPECT_GT(wedges, 0);
  EXPECT_GT(tails, 0);
  const std::vector<double> clean = ramp(n);
  double biggest = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    biggest = std::max(biggest, std::fabs(bulk[i] - clean[i]) / sigma);
  }
  EXPECT_GT(biggest, zig::kR);  // a tail deviate made it into the output
}

TEST(Rng, AddGaussianMatchesPerCallLoopStrided) {
  // Lane layout: a shared input column fanned into lane `l` of a
  // lane-major tile, value (i, l) at out[i*lanes + l].
  const std::size_t n = 50000;
  const std::size_t lanes = 3;
  const std::vector<double> in = ramp(n);
  std::vector<double> bulk(n * lanes, -1.0);
  std::vector<double> loop(n * lanes, -1.0);
  int wedges = 0;
  int tails = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng a(100 + l);
    Rng b(100 + l);
    a.add_gaussian(in.data(), bulk.data() + l, n, 0.5, 1, lanes);
    add_gaussian_per_call(b, in.data(), loop.data() + l, n, 0.5, 1, lanes,
                          &wedges, &tails);
    EXPECT_TRUE(a == b) << "lane " << l;
  }
  EXPECT_TRUE(same_bits(bulk, loop));
  EXPECT_GT(wedges, 0);
}

TEST(Rng, AddGaussianIsBlockSizeInvariant) {
  const std::size_t n = 100000;
  const std::vector<double> in = ramp(n);
  std::vector<double> whole(n);
  std::vector<double> split(n);
  Rng a(57);
  Rng b(57);
  a.add_gaussian(in.data(), whole.data(), n, 1.0);
  const std::size_t cuts[] = {0, 1, 2, 7, 4096, 4097, 31000, n};
  for (std::size_t k = 0; k + 1 < std::size(cuts); ++k) {
    b.add_gaussian(in.data() + cuts[k], split.data() + cuts[k],
                   cuts[k + 1] - cuts[k], 1.0);
  }
  EXPECT_TRUE(same_bits(whole, split));
  EXPECT_TRUE(a == b);
}

TEST(Rng, AddGaussianOfNothingLeavesStateAlone) {
  Rng a(77);
  const Rng before = a;
  a.add_gaussian(nullptr, nullptr, 0, 1.0);
  EXPECT_TRUE(a == before);
  EXPECT_EQ(a.gaussian(), Rng(77).gaussian());
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 50000.0, 0.25, 0.01);
  Rng rng2(21);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng2.chance(0.0));
}

}  // namespace
}  // namespace serdes::util
