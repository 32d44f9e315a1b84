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
// This header is intentionally empty unless __AVX2__ is defined: only
// simd_avx2.cpp is compiled with -mavx2 (never -mfma; vab_dsp builds with
// -ffp-contract=off, so mul+add can never fuse into an FMA, which would change
// result bits), and the header self-containment lint compiles headers
// without it.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp::simd {

struct Avx2Arch {
  static constexpr std::size_t kLanes = 2;
  using V = __m256d;  // [re0, im0, re1, im1]
  using R = __m256d;  // broadcast real factor

  static V zero() { return _mm256_setzero_pd(); }
  static V load(const cplx* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static V load_stride(const cplx* p, std::size_t m) {
    return _mm256_set_m128d(_mm_loadu_pd(reinterpret_cast<const double*>(p + m)),
                            _mm_loadu_pd(reinterpret_cast<const double*>(p)));
  }
  static void store(cplx* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static R broadcast_real(double s) { return _mm256_set1_pd(s); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul_real(V a, R s) { return _mm256_mul_pd(s, a); }
  static V cmul(V a, V b) {
    const V t1 = _mm256_mul_pd(a, _mm256_movedup_pd(b));        // [ac, bc]
    const V t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0x5),       // [b, a]
                               _mm256_permute_pd(b, 0xF));      // * [d, d]
    return _mm256_addsub_pd(t1, t2);                            // [ac-bd, bc+ad]
  }
};

}  // namespace vab::dsp::simd

#endif  // defined(__AVX2__)
