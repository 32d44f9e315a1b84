// AVX2 architecture: two complex<double> lanes per 256-bit vector, laid out
// interleaved as [re0, im0, re1, im1].
//
// Everything here is a lane-parallel transcription of ScalarArch — same
// products, same add/sub order per lane. cmul uses the classic
// movedup/permute/addsub sequence, which produces
//   (a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im)
// per lane: the real part is the exact scalar expression; the imaginary part
// folds the same two exact products with one commutative IEEE addition, so
// the bits agree with std::complex multiplication for finite values.
//
// Avx2DrawArch is the Gaussian batch sampler's lane set: four engine words
// or four doubles per vector, a lane-parallel transcription of
// ScalarDrawArch (whose double ops the correlator's step sums share). The
// MT twist and tempering are shifts, ANDs and XORs. The u64 -> double
// conversion, which AVX2 lacks, splits each word: hi * 2^32
// and lo are exact doubles, so their one sum rounds the word exactly as the
// scalar cvtsi2sd sequence does. Scaling by 2^-64 is exact.
//
// This header is intentionally empty unless __AVX2__ is defined: only
// simd_avx2.cpp is compiled with -mavx2 (never -mfma; vab_dsp builds with
// -ffp-contract=off, so mul+add can never fuse into an FMA, which would change
// result bits), and the header self-containment lint compiles headers
// without it.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace vab::dsp::simd {

struct Avx2Arch {
  static constexpr std::size_t kLanes = 2;
  using V = __m256d;  // [re0, im0, re1, im1]

  static V load(const cplx* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static V load_strided(const cplx* p, std::size_t stride) {
    return _mm256_set_m128d(_mm_loadu_pd(reinterpret_cast<const double*>(p + stride)),
                            _mm_loadu_pd(reinterpret_cast<const double*>(p)));
  }
  static void store_strided(cplx* p, std::size_t stride, V v) {
    _mm_storeu_pd(reinterpret_cast<double*>(p), _mm256_castpd256_pd128(v));
    _mm_storeu_pd(reinterpret_cast<double*>(p + stride), _mm256_extractf128_pd(v, 1));
  }
  static V splat(cplx v) {
    return _mm256_setr_pd(v.real(), v.imag(), v.real(), v.imag());
  }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V cmul(V a, V b) {
    const V t1 = _mm256_mul_pd(a, _mm256_movedup_pd(b));        // [ac, bc]
    const V t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0x5),       // [b, a]
                               _mm256_permute_pd(b, 0xF));      // * [d, d]
    return _mm256_addsub_pd(t1, t2);                            // [ac-bd, bc+ad]
  }
};

// For each 4-bit lane mask, the 32-bit element permutation that moves the
// selected double lanes to the front in lane order.
using CompactPerm = std::array<std::int32_t, 8>;

constexpr std::array<CompactPerm, 16> make_compact_perms() {
  std::array<CompactPerm, 16> t{};
  for (unsigned m = 0; m < 16; ++m) {
    std::size_t n = 0;
    for (std::int32_t lane = 0; lane < 4; ++lane)
      if (m & (1U << lane)) {
        t[m][2 * n] = 2 * lane;
        t[m][2 * n + 1] = 2 * lane + 1;
        ++n;
      }
  }
  return t;
}

inline constexpr std::array<CompactPerm, 16> kCompactPerms = make_compact_perms();

struct Avx2DrawArch {
  static constexpr std::size_t kLanes = 4;
  using U = __m256i;  // four engine words
  using D = __m256d;  // four draws

  static U load_u(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_u(std::uint64_t* p, U v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static U set_u(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static U twist_word(U cur, U next, U far) {
    using Mt = common::Mt19937_64;
    const U y = _mm256_or_si256(_mm256_and_si256(cur, set_u(Mt::kUpperMask)),
                                _mm256_and_si256(next, set_u(Mt::kLowerMask)));
    const U odd = _mm256_sub_epi64(_mm256_setzero_si256(),
                                   _mm256_and_si256(y, set_u(1)));
    const U mag = _mm256_and_si256(odd, set_u(Mt::kMatrixA));
    return _mm256_xor_si256(_mm256_xor_si256(far, _mm256_srli_epi64(y, 1)), mag);
  }
  static U temper(U z) {
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29),
                                             set_u(0x5555555555555555ULL)));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17),
                                             set_u(0x71d67fffeda60000ULL)));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                                             set_u(0xfff7eee000000000ULL)));
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
  }
  static D signed_unit(U w) {
    const D two84 = _mm256_set1_pd(0x1p84);
    const D two52 = _mm256_set1_pd(0x1p52);
    // 2^84 + hi * 2^32 and 2^52 + lo by writing into the mantissas.
    const U hi = _mm256_or_si256(_mm256_srli_epi64(w, 32), _mm256_castpd_si256(two84));
    const U lo = _mm256_blend_epi32(w, _mm256_castpd_si256(two52), 0xaa);
    const D hi_part =
        _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1p84 + 0x1p52));
    const D word = _mm256_add_pd(hi_part, _mm256_castsi256_pd(lo));
    const D u = _mm256_mul_pd(word, _mm256_set1_pd(0x1p-64));
    const D clamped = _mm256_blendv_pd(u, _mm256_set1_pd(0x1.fffffffffffffp-1),
                                       _mm256_cmp_pd(u, _mm256_set1_pd(1.0), _CMP_GE_OQ));
    return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), clamped),
                         _mm256_set1_pd(1.0));
  }

  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static D iota(std::size_t first) {
    const double f = static_cast<double>(first);
    return _mm256_setr_pd(f, f + 1.0, f + 2.0, f + 3.0);
  }
  static void load_pairs(const double* p, D& x, D& y) {
    const D a = _mm256_loadu_pd(p);      // x0 y0 x1 y1
    const D b = _mm256_loadu_pd(p + 4);  // x2 y2 x3 y3
    x = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xd8);
    y = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xd8);
  }
  static void load_pairs_strided(const double* p, std::size_t stride, D& x, D& y) {
    const D a = _mm256_set_m128d(_mm_loadu_pd(p + stride), _mm_loadu_pd(p));
    const D b = _mm256_set_m128d(_mm_loadu_pd(p + 3 * stride),
                                 _mm_loadu_pd(p + 2 * stride));
    x = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xd8);
    y = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xd8);
  }
  static D radius2(D x, D y) {
    return _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
  }
  static unsigned accept(D r2) {
    const D reject = _mm256_or_pd(_mm256_cmp_pd(r2, _mm256_set1_pd(1.0), _CMP_GT_OQ),
                                  _mm256_cmp_pd(r2, _mm256_setzero_pd(), _CMP_EQ_OQ));
    return ~static_cast<unsigned>(_mm256_movemask_pd(reject)) & 0xfU;
  }
  static std::size_t compact(double* dst, D v, unsigned mask) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompactPerms[mask].data()));
    const __m256 moved = _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), idx);
    _mm256_storeu_pd(dst, _mm256_castps_pd(moved));
    return static_cast<std::size_t>(__builtin_popcount(mask));
  }
  static D polar_mult(D log_r2, D r2) {
    return _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_r2), r2));
  }
  static D set1(double v) { return _mm256_set1_pd(v); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D unit_normal(D v) { return _mm256_add_pd(v, _mm256_setzero_pd()); }
  static void store_interleaved(double* out, D first, D second) {
    const D lo = _mm256_unpacklo_pd(first, second);  // f0 s0 f2 s2
    const D hi = _mm256_unpackhi_pd(first, second);  // f1 s1 f3 s3
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }

};

}  // namespace vab::dsp::simd

#endif  // defined(__AVX2__)
