// Width-generic kernel templates over an Arch (arch_scalar / arch_avx2).
// Each kernel vectorizes across independent outputs — every lane
// runs the full scalar operation sequence for its own output — and hands any
// remainder tail to the ScalarArch instantiation of the same helper, so
// "scalar reference" and "SIMD remainder" are one code path.
//
// Included only by the simd_{scalar,avx2}.cpp translation units, each
// compiled with exactly its ISA's flags (and -ffp-contract=off, like all of
// vab_dsp: a contracted FMA would change result bits and break the identity
// contract).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/simd/arch_scalar.hpp"

namespace vab::dsp::simd::detail {

/// One decimated-FIR output lane: sum_k taps[k] * base[l*m - k] per lane l,
/// taps ascending — the streaming path's accumulation order.
template <class A>
inline typename A::V fir_lane(const double* taps, std::size_t n_taps,
                              const cplx* base, std::size_t m) {
  typename A::V acc = A::zero();
  for (std::size_t k = 0; k < n_taps; ++k)
    acc = A::add(acc, A::mul_real(A::load_stride(base - k, m),
                                  A::broadcast_real(taps[k])));
  return acc;
}

template <class A>
void fir_decimate_k(const double* taps, std::size_t n_taps, const cplx* x,
                    std::size_t i_first, std::size_t m, cplx* out,
                    std::size_t n_out) {
  std::size_t j = 0;
  // Four independent accumulator vectors per pass: the tap broadcast is
  // shared and four add chains hide the FP-add latency that a single
  // accumulator would serialize on. Per-output op order is unchanged.
  for (; j + 4 * A::kLanes <= n_out; j += 4 * A::kLanes) {
    const cplx* base = x + i_first + j * m;
    typename A::V acc0 = A::zero();
    typename A::V acc1 = A::zero();
    typename A::V acc2 = A::zero();
    typename A::V acc3 = A::zero();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const typename A::R t = A::broadcast_real(taps[k]);
      const cplx* row = base - k;
      acc0 = A::add(acc0, A::mul_real(A::load_stride(row, m), t));
      acc1 = A::add(acc1, A::mul_real(A::load_stride(row + A::kLanes * m, m), t));
      acc2 = A::add(acc2, A::mul_real(A::load_stride(row + 2 * A::kLanes * m, m), t));
      acc3 = A::add(acc3, A::mul_real(A::load_stride(row + 3 * A::kLanes * m, m), t));
    }
    A::store(out + j, acc0);
    A::store(out + j + A::kLanes, acc1);
    A::store(out + j + 2 * A::kLanes, acc2);
    A::store(out + j + 3 * A::kLanes, acc3);
  }
  for (; j + A::kLanes <= n_out; j += A::kLanes)
    A::store(out + j, fir_lane<A>(taps, n_taps, x + i_first + j * m, m));
  for (; j < n_out; ++j)
    ScalarArch::store(out + j,
                      fir_lane<ScalarArch>(taps, n_taps, x + i_first + j * m, m));
}

/// One radix-2 butterfly over kLanes adjacent (lo, hi) pairs.
template <class A>
inline void fft_butterfly(cplx* lo, cplx* hi, const cplx* tw) {
  const typename A::V u = A::load(lo);
  const typename A::V v = A::cmul(A::load(hi), A::load(tw));
  A::store(lo, A::add(u, v));
  A::store(hi, A::sub(u, v));
}

template <class A>
void fft_stages_k(cplx* x, std::size_t n, const cplx* twiddle) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const cplx* tw = twiddle + (len / 2 - 1);
    const std::size_t half = len / 2;
    if (half >= A::kLanes) {
      // half is a power of two >= kLanes, so rows split evenly: no tail.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; k += A::kLanes)
          fft_butterfly<A>(x + i + k, x + i + k + half, tw + k);
    } else {
      // Narrow early stages (len=2 under AVX2): width-1, same butterfly.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; ++k)
          fft_butterfly<ScalarArch>(x + i + k, x + i + k + half, tw + k);
    }
  }
}

// Instantiates the per-ISA entry points declared in kernels_decl.hpp for
// `arch` under name suffix `suffix`; used once per simd_*.cpp TU.
#define VAB_SIMD_DEFINE_KERNELS(suffix, arch)                                  \
  void fir_decimate_##suffix(const double* taps, std::size_t n_taps,           \
                             const cplx* x, std::size_t i_first,               \
                             std::size_t m, cplx* out, std::size_t n_out) {    \
    fir_decimate_k<arch>(taps, n_taps, x, i_first, m, out, n_out);             \
  }                                                                            \
  void fft_stages_##suffix(cplx* x, std::size_t n, const cplx* twiddle) {      \
    fft_stages_k<arch>(x, n, twiddle);                                         \
  }

}  // namespace vab::dsp::simd::detail
