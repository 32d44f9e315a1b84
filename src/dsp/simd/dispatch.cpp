// Runtime ISA dispatch for the batch kernels: force_isa() (tests / A-B
// benches) if set, else AVX2 when it is compiled in and the CPU supports it,
// else the scalar reference.
//
// The resolved name is written to the obs run manifest ("simd_isa") the
// first time it is resolved, so every metrics snapshot and BENCH line
// records which path produced its numbers.
#include "dsp/simd/simd.hpp"

#include <atomic>

#include "dsp/simd/kernels_decl.hpp"
#include "obs/manifest.hpp"

namespace vab::dsp::simd {

namespace {

// -1 = automatic, otherwise static_cast<int>(Isa).
std::atomic<int> g_forced{-1};

bool runtime_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(VAB_SIMD_COMPILED_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Isa record_isa(Isa isa) {
  obs::set_manifest("simd_isa", isa_name(isa));
  return isa;
}

Isa auto_isa() {
  static const Isa resolved = record_isa(
      runtime_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar);
  return resolved;
}

}  // namespace

Isa active_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return auto_isa();
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool force_isa(Isa isa) {
  if (!runtime_supported(isa)) return false;
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
  record_isa(isa);
  return true;
}

void reset_isa() {
  g_forced.store(-1, std::memory_order_relaxed);
  record_isa(auto_isa());
}

void fft_stages(cplx* x, std::size_t n, const cplx* twiddle) {
  if (active_isa() == Isa::kAvx2) {
    detail::fft_stages_avx2(x, n, twiddle);
  } else {
    detail::fft_stages_scalar(x, n, twiddle);
  }
}

void fill_gaussian(common::Rng& rng, double* out, std::size_t n) {
  if (active_isa() == Isa::kAvx2) {
    detail::fill_gaussian_avx2(rng.raw_state(), out, n);
  } else {
    detail::fill_gaussian_scalar(rng.raw_state(), out, n);
  }
}

void step_sum(const double* x, const std::size_t* off, const double* w,
              std::size_t steps, double* out, std::size_t n) {
  if (active_isa() == Isa::kAvx2) {
    detail::step_sum_avx2(x, off, w, steps, out, n);
  } else {
    detail::step_sum_scalar(x, off, w, steps, out, n);
  }
}

void front_end_outputs(const FrontEndSteps& in, cplx* out, std::size_t n) {
  if (active_isa() == Isa::kAvx2) {
    detail::front_end_outputs_avx2(in, out, n);
  } else {
    detail::front_end_outputs_scalar(in, out, n);
  }
}

}  // namespace vab::dsp::simd
