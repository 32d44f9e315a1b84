// Deterministic random number generation for reproducible Monte-Carlo runs.
//
// Every stochastic component in the library takes an explicit Rng& so that a
// trial is fully determined by its seed. Benches derive per-trial seeds from
// a master seed with `child()` to keep trials independent yet reproducible.
//
// The engine and the distributions are in-repo code that reproduces
// libstdc++'s std::mt19937_64, generate_canonical<double, 53>,
// normal_distribution and uniform_int_distribution<int64_t> bit for bit, so
// the seeded draws do not depend on which standard library the build links.
// Only the binomial draw in sim/linkbudget still runs std:: distribution
// code (over this engine). tests/test_rng.cpp pins all of it, against std::
// and against checked-in draw vectors.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace vab::common {

/// MT19937-64 (Matsumoto & Nishimura), output-identical to std::mt19937_64:
/// the same seeding recurrence, twist and tempering. The state holds the
/// untempered words; each draw tempers one on read.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;  ///< state size n
  static constexpr std::size_t kShift = 156;  ///< middle offset m
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kWords) twist();
    return temper(x_[pos_++]);
  }

  /// One word of the twist: x[k] <- far ^ (y >> 1) ^ (y odd ? a : 0) with
  /// y = (x[k] upper bits | x[k+1] lower bits).
  static result_type twist_word(result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((y & 1U) ? kMatrixA : 0);
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Regenerates all kWords state words and rewinds to the first.
  void twist();

 private:
  friend class Rng;
  std::array<result_type, kWords> x_;
  std::size_t pos_;
};

/// generate_canonical<double, 53> over a 64-bit engine: one word, converted
/// with one rounding and scaled by 2^-64, clamped below 1.
inline double canonical_double(std::uint64_t word) {
  const double u = static_cast<double>(word) / 18446744073709551616.0;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

/// The raw state behind an Rng, for batch samplers outside common
/// (dsp::simd::fill_gaussian) that must leave it exactly as the same number
/// of sequential gaussian() calls would.
struct RngRawState {
  std::uint64_t* words;    ///< Mt19937_64::kWords untempered state words
  std::size_t& pos;        ///< next word to temper; kWords means twist first
  double& saved_normal;    ///< second value of the last accepted polar pair
  bool& has_saved_normal;  ///< saved_normal is the next gaussian() value
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// SplitMix64 finalizer: a bijective avalanche mix on 64 bits.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Derives an independent child generator; `stream` distinguishes children.
  ///
  /// Derivation contract:
  ///   child_seed = mix64(seed + mix64(stream + GAMMA)),  GAMMA = 2^64/phi.
  ///
  /// The stream index is avalanche-mixed *before* being combined with the
  /// parent seed. The earlier derivation added `GAMMA * (stream + 1)` raw,
  /// which left child seeds of one parent on an arithmetic lattice: two
  /// parents whose seeds differ by a multiple of GAMMA (which nested
  /// child() chains can produce) would generate colliding child streams at
  /// a fixed stream offset. With the inner mix, a collision between
  /// children of distinct parents requires mix64(i + GAMMA) - mix64(j +
  /// GAMMA) to equal the parent-seed difference — a birthday-bound (~2^-64
  /// per pair) event rather than a structural one. Consequences:
  ///  - children of one parent are pairwise distinct (mix64 is bijective),
  ///  - grandchild streams child(i).child(j) are decorrelated from each
  ///    other and from direct children (tested by chi-squared uniformity
  ///    in test_common.cpp),
  ///  - the derivation is pure: child() never advances the parent engine,
  ///    so trial fan-out order cannot affect any stream's draws.
  Rng child(std::uint64_t stream) const {
    return Rng(mix64(seed_ + mix64(stream + 0x9e3779b97f4a7c15ULL)));
  }

  /// Uniform double in [0, 1).
  double uniform() { return canonical_double(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive: libstdc++'s
  /// uniform_int_distribution<int64_t> over this engine, draw for draw. The
  /// range is taken as the unsigned offset hi - lo; a full 64-bit range
  /// passes one word through, any other is Lemire's multiply-and-reject
  /// (`_S_nd`) over unsigned __int128. The result is lo plus the offset,
  /// wrapped in unsigned arithmetic.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t urange =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    std::uint64_t ret;
    if (urange == Mt19937_64::max()) {
      ret = engine_();
    } else {
      const std::uint64_t erange = urange + 1;
      using u128 = unsigned __int128;
      u128 product = u128{engine_()} * erange;
      auto low = static_cast<std::uint64_t>(product);
      if (low < erange) {
        const std::uint64_t threshold = -erange % erange;
        while (low < threshold) {
          product = u128{engine_()} * erange;
          low = static_cast<std::uint64_t>(product);
        }
      }
      ret = static_cast<std::uint64_t>(product >> 64);
    }
    return static_cast<std::int64_t>(ret + static_cast<std::uint64_t>(lo));
  }

  /// Standard normal sample: the Marsaglia polar method, which yields two
  /// values per accepted (x, y) pair; the second is returned by the next
  /// call.
  double gaussian();

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  cplx complex_gaussian(double variance = 1.0);

  /// Bernoulli with probability p of true.
  bool coin(double p = 0.5) { return uniform() < p; }

  /// Vector of random bits.
  bitvec random_bits(std::size_t n);

  Mt19937_64& engine() { return engine_; }

  /// The engine words, position and polar cache, for batch samplers.
  RngRawState raw_state() {
    return {engine_.x_.data(), engine_.pos_, saved_normal_, has_saved_normal_};
  }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
  double saved_normal_ = 0.0;
  bool has_saved_normal_ = false;
};

}  // namespace vab::common
