// The conforming counterpart to raw_intrinsics.cpp: hot loops call the
// runtime-dispatched dsp::simd entry points, which pick AVX2 (or the
// width-1 scalar twin) internally — _mm256_add_pd and _mm256_addsub_pd stay
// confined to src/dsp/simd/, where the bit-identity gate covers them. An
// intrinsic named in a comment, like those two, must never trip the rule.
#include "dsp/simd/simd.hpp"

#include <cstddef>

namespace vab::dsp {

void decimate_block(const double* taps, std::size_t n_taps, const cplx* x,
                    std::size_t i_first, std::size_t m, cplx* out,
                    std::size_t n_out) {
  simd::fir_decimate(taps, n_taps, x, i_first, m, out, n_out);
}

void butterfly_stages(cplx* x, std::size_t n, const cplx* twiddle) {
  simd::fft_stages(x, n, twiddle);
}

const char* report_isa() {
  // Reading the active ISA for telemetry is fine; only raw instruction-level
  // code is confined.
  return simd::isa_name(simd::active_isa());
}

}  // namespace vab::dsp
