// The seeded-draw contract of common::Rng and the batch Gaussian sampler.
//
// Every golden depends on these draws, so they are pinned three ways:
//  - against libstdc++'s std::mt19937_64, uniform_real_distribution,
//    uniform_int_distribution and normal_distribution, output for output
//    (only where the build links libstdc++: another standard library is
//    free to differ, and our code
//    must not);
//  - against checked-in hex draw vectors, which hold on any toolchain;
//  - dsp::simd::fill_gaussian against n sequential gaussian() calls,
//    including the engine state each leaves behind, at both ISAs.
// Comparisons are on bits, not values within a tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cstdint>
#include <utility>
#include <random>
#include <vector>

#include "common/rng.hpp"
#include "dsp/simd/simd.hpp"

namespace vab {
namespace {

using common::Rng;
using dsp::simd::Isa;

std::vector<Rng> streams() {
  return {Rng(0),        Rng(1),          Rng(7),           Rng(0x5eed5eedULL),
          Rng(~0ULL),    Rng(1).child(0), Rng(7).child(3),  Rng(7).child(3).child(9),
          Rng(42).child(123456789)};
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  for (Rng rng : streams()) {
    std::mt19937_64 ref(rng.seed());
    for (int i = 0; i < 10000; ++i)
      ASSERT_EQ(rng.engine()(), ref()) << rng.seed() << " @" << i;
  }
}

TEST(Rng, EngineTenThousandthOutputIsTheStandardsValue) {
  // [rand.predef]: the 10000th output of a default-seeded (5489)
  // mt19937_64. Holds without any std:: engine in the comparison.
  common::Mt19937_64 e(5489);
  for (int i = 0; i < 9999; ++i) e();
  EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(Rng, EngineMatchesCheckedInWords) {
  const std::uint64_t seed1[] = {0x2245bd5fbb686f68ULL, 0x22eb92502318fa4eULL,
                                 0x7382d1e77ae6459aULL, 0x0561d8057935c08eULL,
                                 0x59d47572ecfc6738ULL, 0xe94ec2d2b9936849ULL};
  Rng a(1);
  for (std::uint64_t w : seed1) EXPECT_EQ(a.engine()(), w);
  const std::uint64_t child73[] = {0x04a5acae324c93d9ULL, 0x176ddff1169fd5e1ULL,
                                   0xe5d50c516d1d7d16ULL, 0x1562f1968fdf2080ULL,
                                   0x945ab7063c526046ULL, 0x04bf77f4377bd7ecULL};
  Rng c = Rng(7).child(3);
  EXPECT_EQ(c.seed(), 0x8ee3b67bf066d29bULL);
  for (std::uint64_t w : child73) EXPECT_EQ(c.engine()(), w);
}

TEST(Rng, DrawsMatchCheckedInVectors) {
  // Seed 7: uniform, three gaussians, uniform, gaussian. The uniform between
  // the third and fourth gaussian sits while a second value is cached.
  const std::uint64_t seed7[] = {0x3fe823eca63d6cdbULL, 0xbfd0e889b8d180f6ULL,
                                 0x3fdbe67796b4c287ULL, 0x3feeb6fd76923316ULL,
                                 0x3fe313fa7e75ef7cULL, 0x3fea2b9a67b5b0a8ULL};
  Rng r(7);
  const double got[] = {r.uniform(), r.gaussian(), r.gaussian(),
                        r.gaussian(), r.uniform(), r.gaussian()};
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), seed7[i]) << i;

  // Seed 42 after 311 uniforms: the first polar pair straddles a twist.
  const std::uint64_t seed42[] = {0x3fe41fac30f25d88ULL, 0xbfd2e38d6337a27eULL,
                                  0x3fee75ac629edf44ULL, 0x3ff0ba561cb6b5d2ULL,
                                  0x3fe65289a982149eULL};
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (!dsp::simd::force_isa(isa)) continue;
    for (const bool batch : {false, true}) {
      Rng s(42);
      for (int i = 0; i < 311; ++i) s.uniform();
      double g[5];
      if (batch) {
        dsp::simd::fill_gaussian(s, g, 5);
      } else {
        for (double& v : g) v = s.gaussian();
      }
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g[i]), seed42[i])
            << dsp::simd::isa_name(isa) << " batch=" << batch << " @" << i;
      EXPECT_EQ(s.engine()(), 0x1bf1cedc0363fd9cULL);
    }
  }
  dsp::simd::reset_isa();
}

TEST(Rng, UniformIntMatchesCheckedInVectors) {
  // Seed 11, four draws per range in this order: a single value, small
  // ranges, 2^31-1 and 2^32+1 values, 2^63+1 values (rejects about half
  // its words) and the full 64-bit range (one word passed through).
  struct Case {
    std::int64_t lo, hi;
    std::uint64_t draws[4];
  };
  const Case cases[] = {
      {5, 5, {0x5ULL, 0x5ULL, 0x5ULL, 0x5ULL}},
      {0, 1, {0x0ULL, 0x0ULL, 0x1ULL, 0x1ULL}},
      {0, 6, {0x3ULL, 0x6ULL, 0x1ULL, 0x0ULL}},
      {-3, 1000, {0x375ULL, 0x188ULL, 0xffULL, 0x13aULL}},
      {0, (std::int64_t{1} << 31) - 2,
       {0x2ff50667ULL, 0x006e1997ULL, 0x6c5a07f1ULL, 0x789f5bcdULL}},
      {0, std::int64_t{1} << 32,
       {0x4ce56ce0ULL, 0xef42b97bULL, 0xc2bddf3aULL, 0xdc86e8aeULL}},
      {-(std::int64_t{1} << 62), std::int64_t{1} << 62,
       {0xf7523c35bd90682eULL, 0xcb3f0e5f8614091dULL, 0xff2cabd1f9fbe9b4ULL,
        0xc60bb8d1e04551e6ULL}},
      {INT64_MIN, INT64_MAX,
       {0x791c1846ee1d7dc7ULL, 0x28e4382d7e4092b6ULL, 0xe97517ad24f0f873ULL,
        0xdca769f3d34da96cULL}},
  };
  Rng r(11);
  for (const Case& c : cases)
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(static_cast<std::uint64_t>(r.uniform_int(c.lo, c.hi)), c.draws[i])
          << "[" << c.lo << ", " << c.hi << "] @" << i;
  EXPECT_EQ(r.engine()(), 0x9fc06b7f30c60f3cULL);  // same words consumed
}

#if defined(__GLIBCXX__)
TEST(Rng, UniformIntMatchesLibstdcxxOverRanges) {
  const std::int64_t kMin = INT64_MIN, kMax = INT64_MAX;
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},           {-1, -1},      {0, 1},          {0, 2},
      {0, 255},         {1, 300},      {-7, 7},         {0, (1LL << 32) - 1},
      {0, 1LL << 32},   {0, 1LL << 33}, {kMin, -1},     {0, kMax},
      {-1, kMax},       {kMin, 0},     {kMin / 2, kMax / 2 + 1}, {kMin + 1, kMax},
      {kMin, kMax}};
  for (Rng rng : streams()) {
    std::mt19937_64 eng(rng.seed());
    for (const auto& [lo, hi] : ranges)
      for (int i = 0; i < 200; ++i)
        ASSERT_EQ(rng.uniform_int(lo, hi),
                  std::uniform_int_distribution<std::int64_t>(lo, hi)(eng))
            << rng.seed() << " [" << lo << ", " << hi << "] @" << i;
    EXPECT_EQ(rng.engine()(), eng());
  }
}

TEST(Rng, InterleavedDrawsMatchLibstdcxxDistributions) {
  for (Rng rng : streams()) {
    std::mt19937_64 eng(rng.seed());
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> normal(0.0, 1.0);
    // A fixed op pattern with odd runs of gaussians, so uniforms land both
    // with and without a cached second value.
    std::uint64_t op = rng.seed() | 1;
    for (int i = 0; i < 20000; ++i) {
      op = op * 6364136223846793005ULL + 1442695040888963407ULL;
      switch (op >> 62) {
        case 0:
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.uniform()),
                    std::bit_cast<std::uint64_t>(unit(eng)));
          break;
        case 1:
          ASSERT_EQ(rng.uniform_int(-3, 1000),
                    std::uniform_int_distribution<std::int64_t>(-3, 1000)(eng));
          break;
        default:
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian()),
                    std::bit_cast<std::uint64_t>(normal(eng)))
              << rng.seed() << " @" << i;
      }
    }
  }
}
#endif

/// Entry states for the batch: fresh, a cached second value, every engine
/// offset parity, and the last word before a twist.
struct Entry {
  const char* name;
  int uniforms;  ///< uniform() calls before the batch
  int normals;   ///< gaussian() calls after those (odd leaves a cached value)
};
const Entry kEntries[] = {{"fresh", 0, 0},       {"cached", 0, 1},
                          {"odd_offset", 1, 0},  {"odd_cached", 3, 3},
                          {"pre_twist", 311, 0}, {"pre_twist_cached", 310, 1}};

/// Runs `entry` then a batch of n (or n sequential gaussian() calls), and
/// returns the draws followed by what the stream yields next: the next
/// gaussian() (exposing the cache) and the next engine word.
std::vector<std::uint64_t> draws_after(const Entry& entry, std::size_t n, bool batch) {
  Rng rng(99);
  for (int i = 0; i < entry.uniforms; ++i) rng.uniform();
  for (int i = 0; i < entry.normals; ++i) rng.gaussian();
  std::vector<double> out(n);
  if (batch) {
    dsp::simd::fill_gaussian(rng, out.data(), n);
  } else {
    for (double& v : out) v = rng.gaussian();
  }
  std::vector<std::uint64_t> bits;
  for (double v : out) bits.push_back(std::bit_cast<std::uint64_t>(v));
  bits.push_back(std::bit_cast<std::uint64_t>(rng.gaussian()));
  bits.push_back(rng.engine()());
  return bits;
}

TEST(Rng, BatchFillEqualsSequentialGaussians) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (!dsp::simd::force_isa(isa)) continue;
    for (const Entry& e : kEntries)
      for (std::size_t n : {0, 1, 2, 3, 311, 312, 313, 131070}) {
        EXPECT_EQ(draws_after(e, n, true), draws_after(e, n, false))
            << dsp::simd::isa_name(isa) << " " << e.name << " n=" << n;
      }
  }
  dsp::simd::reset_isa();
}

TEST(Rng, BatchFillIsIdenticalAcrossIsas) {
  if (!dsp::simd::force_isa(Isa::kAvx2)) GTEST_SKIP() << "AVX2 not available";
  std::vector<std::vector<std::uint64_t>> avx2;
  for (const Entry& e : kEntries) avx2.push_back(draws_after(e, 4099, true));
  ASSERT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  for (std::size_t i = 0; i < std::size(kEntries); ++i)
    EXPECT_EQ(draws_after(kEntries[i], 4099, true), avx2[i]) << kEntries[i].name;
  dsp::simd::reset_isa();
}

TEST(Rng, BatchFillsChainLikeOneFill) {
  // Two back-to-back fills of odd length hand the cached value across.
  Rng a(5), b(5);
  std::vector<double> one(1001), two(1001);
  dsp::simd::fill_gaussian(a, one.data(), 1001);
  dsp::simd::fill_gaussian(b, two.data(), 333);
  dsp::simd::fill_gaussian(b, two.data() + 333, 668);
  for (std::size_t i = 0; i < one.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(one[i]), std::bit_cast<std::uint64_t>(two[i]))
        << i;
  EXPECT_EQ(a.engine()(), b.engine()());
}

}  // namespace
}  // namespace vab
