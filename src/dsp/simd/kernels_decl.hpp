// Declarations of the per-ISA kernel entry points defined by
// VAB_SIMD_DEFINE_KERNELS in the simd_{scalar,avx2}.cpp translation units.
// Both symbol sets always exist (when AVX2 is not compiled the avx2 names
// forward to the scalar kernels), so dispatch.cpp links unconditionally.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsp/simd/simd.hpp"

namespace vab::dsp::simd::detail {

#define VAB_SIMD_KERNELS(suffix)                                               \
  void fft_stages_##suffix(cplx* x, std::size_t n, const cplx* twiddle);      \
  void fill_gaussian_##suffix(common::RngRawState st, double* out,             \
                              std::size_t n);                                  \
  void step_sum_##suffix(const double* x, const std::size_t* off,              \
                         const double* w, std::size_t steps, double* out,      \
                         std::size_t n);                                   \
  void front_end_outputs_##suffix(const FrontEndSteps& in, cplx* out,          \
                                  std::size_t n);

VAB_SIMD_KERNELS(scalar)
VAB_SIMD_KERNELS(avx2)

#undef VAB_SIMD_KERNELS

}  // namespace vab::dsp::simd::detail
