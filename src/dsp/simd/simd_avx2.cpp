// AVX2 instantiation of the kernel templates. This is the only translation
// unit built with -mavx2 (never -mfma), plus -ffp-contract=off. When the
// build does not target x86-64 AVX2 the same symbols are emitted as scalar
// forwards so dispatch.cpp links either way (they are then unreachable:
// dispatch never resolves to kAvx2).
#include "dsp/simd/arch_avx2.hpp"
#include "dsp/simd/kernels.hpp"

namespace vab::dsp::simd::detail {

#if defined(__AVX2__)
VAB_SIMD_DEFINE_KERNELS(avx2, Avx2Arch, Avx2DrawArch)
#else
VAB_SIMD_DEFINE_KERNELS(avx2, ScalarArch, ScalarDrawArch)
#endif

}  // namespace vab::dsp::simd::detail
