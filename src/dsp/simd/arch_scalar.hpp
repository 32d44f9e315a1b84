// Width-1 "vector" architecture: the reference every wider ISA must match
// bit-for-bit. The kernel templates in kernels.hpp run these ops for their
// main loop when instantiated at kLanes == 1 *and* for every remainder tail
// of a wider instantiation, so the scalar path is the same code, not a
// parallel implementation that could drift.
//
// The op set mirrors what libstdc++'s std::complex arithmetic emits for
// finite values: componentwise add/sub, (a*c - b*d, b*c + a*d) products.
// The imaginary part of cmul writes b*c + a*d where the builtin computes
// a*d + b*c — the same two exact products folded by one commutative IEEE
// addition, so the bits agree.
//
// ScalarDrawArch is the same idea for the Gaussian batch sampler: one
// 64-bit engine word or one double per lane, each op the exact expression
// common::Rng evaluates per draw (it calls the engine's own twist_word,
// temper and canonical_double). Its double ops (set1, add, sub, mul) also
// carry the correlator's step sums and the envelope front end's scatter and
// combine.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace vab::dsp::simd {

struct ScalarArch {
  static constexpr std::size_t kLanes = 1;
  using V = cplx;  // one complex lane

  static V load(const cplx* p) { return *p; }
  static void store(cplx* p, V v) { *p = v; }
  /// kLanes values `stride` apart, and back.
  static V load_strided(const cplx* p, std::size_t stride) {
    (void)stride;
    return *p;
  }
  static void store_strided(cplx* p, std::size_t stride, V v) {
    (void)stride;
    *p = v;
  }
  /// One value in every lane.
  static V splat(cplx v) { return v; }
  static V add(V a, V b) { return cplx{a.real() + b.real(), a.imag() + b.imag()}; }
  static V sub(V a, V b) { return cplx{a.real() - b.real(), a.imag() - b.imag()}; }
  static V cmul(V a, V b) {
    return cplx{a.real() * b.real() - a.imag() * b.imag(),
                a.imag() * b.real() + a.real() * b.imag()};
  }
};

struct ScalarDrawArch {
  static constexpr std::size_t kLanes = 1;
  using U = std::uint64_t;  // one engine word
  using D = double;         // one draw

  static U load_u(const std::uint64_t* p) { return *p; }
  static void store_u(std::uint64_t* p, U v) { *p = v; }
  static U twist_word(U cur, U next, U far) {
    return common::Mt19937_64::twist_word(cur, next, far);
  }
  static U temper(U z) { return common::Mt19937_64::temper(z); }
  /// 2 * generate_canonical - 1: one polar candidate coordinate.
  static D signed_unit(U w) { return 2.0 * common::canonical_double(w) - 1.0; }

  static D load(const double* p) { return *p; }
  static void store(double* p, D v) { *p = v; }
  static D iota(std::size_t first) { return static_cast<double>(first); }
  /// Splits kLanes consecutive (x, y) pairs of the stream at p.
  static void load_pairs(const double* p, D& x, D& y) {
    x = p[0];
    y = p[1];
  }
  /// load_pairs of kLanes pairs `stride` doubles apart.
  static void load_pairs_strided(const double* p, std::size_t stride, D& x, D& y) {
    (void)stride;
    load_pairs(p, x, y);
  }
  static D radius2(D x, D y) { return x * x + y * y; }
  /// Lane bitmask of the candidates the polar method accepts.
  static unsigned accept(D r2) { return (r2 > 1.0 || r2 == 0.0) ? 0U : 1U; }
  /// Writes the lanes selected by `mask` to dst[0..popcount) in lane order
  /// (may write up to kLanes values); returns popcount(mask).
  static std::size_t compact(double* dst, D v, unsigned mask) {
    *dst = v;
    return mask;
  }
  /// sqrt(-2 log(r2) / r2) from the already computed log(r2).
  static D polar_mult(D log_r2, D r2) { return std::sqrt(-2.0 * log_r2 / r2); }
  static D set1(double v) { return v; }
  static D add(D a, D b) { return a + b; }
  static D sub(D a, D b) { return a - b; }
  static D mul(D a, D b) { return a * b; }
  /// normal_distribution's "* stddev + mean" at (1, 0): "+ 0.0" maps -0.0
  /// to +0.0 and leaves every other value as it is.
  static D unit_normal(D v) { return v + 0.0; }
  /// out[2l] = first[l], out[2l + 1] = second[l].
  static void store_interleaved(double* out, D first, D second) {
    out[0] = first;
    out[1] = second;
  }
};

}  // namespace vab::dsp::simd
