// Width-1 reference instantiation of the kernel templates. Compiled with the
// project's default (portable) flags plus -ffp-contract=off; this is the
// bit-exactness baseline every wider ISA must reproduce.
#include "dsp/simd/kernels.hpp"

namespace vab::dsp::simd::detail {

VAB_SIMD_DEFINE_KERNELS(scalar, ScalarArch, ScalarDrawArch)

}  // namespace vab::dsp::simd::detail
