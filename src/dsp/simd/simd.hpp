// Hand-vectorized batch kernels for the three hot loops whose vector path
// moves end-to-end throughput (radix-2 FFT stages, the Gaussian draws of
// noise synthesis and the step sums of the preamble correlator), dispatched
// at runtime between AVX2 and the width-1 scalar reference.
//
// Bit-identity contract: each kernel vectorizes across *independent outputs*
// (FFT butterflies within a stage, engine words and polar candidate pairs,
// correlation lags), never across a reduction axis, so each SIMD lane
// executes exactly the scalar sequence of IEEE-754 operations for its
// output; a multiply and an add stay two roundings (never an FMA). Remainder
// tails reuse the same kernel templates instantiated at width 1
// (arch_scalar.hpp). Seeded results are therefore bit-identical with AVX2
// and with dispatch forced to scalar; the path is on by default and gated by
// tests/test_simd_kernels.cpp and tests/test_rng.cpp.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace vab::dsp::simd {

enum class Isa { kScalar, kAvx2 };

/// Instruction set the kernels currently dispatch to: AVX2 when it is
/// compiled in (x86-64, compiler accepts -mavx2) and the CPU supports it,
/// else scalar, or whatever `force_isa` selected. The resolved name is
/// recorded in the obs run manifest under "simd_isa".
Isa active_isa();

const char* isa_name(Isa isa);

/// Forces dispatch to `isa` (tests and A/B benches). Returns false — and
/// changes nothing — when the requested ISA is not available in this
/// binary or on this CPU.
bool force_isa(Isa isa);

/// Returns to automatic resolution (the CPU check).
void reset_isa();

/// All Danielson-Lanczos stages of a radix-2 DIT FFT over `n` (a power of
/// two) already bit-reversed samples; `twiddle` is the FftPlan per-stage
/// table with stage `len` starting at offset len/2 - 1.
void fft_stages(cplx* x, std::size_t n, const cplx* twiddle);

/// out[0..n) = the next n rng.gaussian() values, and rng is left exactly as
/// those n calls would leave it (engine position, cached second value).
/// Twists and tempers whole MT blocks lane-parallel, tests every candidate
/// pair of a block without branching and compacts the accepted ones; glibc
/// `log` still runs once per accepted pair.
void fill_gaussian(common::Rng& rng, double* out, std::size_t n);

/// out[i] = sum over s < steps of w[s] * x[off[s] + i] for i in [0, n): the
/// weighted sum of `steps` shifted copies of x, each output summed in s
/// order. x must hold off[s] + n values for every s.
void step_sum(const double* x, const std::size_t* off, const double* w,
              std::size_t steps, double* out, std::size_t n);

}  // namespace vab::dsp::simd
