// Hand-vectorized batch kernels for the hot loops whose vector path moves
// end-to-end throughput (the FFT's radix-2^2 passes, the Gaussian draws of
// noise synthesis, the step sums of the preamble correlator, and the
// envelope front end's step scatter and output combine), dispatched at
// runtime between AVX2 and the width-1 scalar reference.
//
// Bit-identity contract: each kernel vectorizes across *independent outputs*
// (FFT butterfly groups within a pass, engine words and polar candidate
// pairs, correlation lags, front-end outputs), never across a reduction
// axis, so each SIMD lane
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
/// table with stage `len` starting at offset len/2 - 1. Stages len and
/// 2 len run fused, one pass per pair (radix-2^2): each lane loads the four
/// points x[k], x[k + len/2], x[k + len], x[k + 3 len/2] of a 2 len block and
/// applies stage len's two butterflies (twiddle[len/2 - 1 + k]) and then
/// stage 2 len's two (twiddle[len - 1 + k] and twiddle[len - 1 + k + len/2]):
/// the butterflies, twiddles and order of the stage-by-stage transform, with
/// half its passes over memory. The first pass (len = 2) puts one 4-point
/// block in each lane; an odd stage count ends on one radix-2 stage.
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

/// Outputs per group of the envelope front end kernel: step starts and the
/// step width are multiples of this.
inline constexpr std::size_t kFrontEndGroup = 4;

/// One step of a capture's envelope, as the envelope front end sees it
/// (phy::ReaderDemodulator::front_end): the change d = dr + j di, and the
/// `width` outputs from `j` it reaches, output j + q weighing it by table
/// entry `row` + q.
struct FrontEndStep {
  double dr = 0.0, di = 0.0;
  std::size_t row = 0;  ///< table entry of output j
  std::size_t j = 0;    ///< first output, a multiple of kFrontEndGroup
};

/// A capture's steps, in capture order, with the front end's tables.
struct FrontEndSteps {
  const FrontEndStep* steps = nullptr;
  std::size_t count = 0;
  std::size_t width = 0;  ///< outputs per step, a multiple of kFrontEndGroup
  const double* h = nullptr;   ///< prefix sums of the taps
  const double* tr = nullptr;  ///< prefix sums of the rotated taps, real
  const double* ti = nullptr;  ///< and imaginary parts
  double h_all = 0.0;          ///< the sums over all taps
  double t_r = 0.0, t_i = 0.0;
  const cplx* e = nullptr;  ///< image rotation of output j at e[j * stride]
  std::size_t stride = 1;
};

/// The envelope front end's outputs j in [0, n), lane-parallel over j. Step
/// sums first: s1 = sum of d h[row + j - j_s] and s2 = sum of conj(d)
/// t[row + j - j_s] over the steps whose width reaches j, in step order from
/// +0.0, each term added as d h, then as the sum of its two products. Then,
/// with b = out[j] on entry (the envelope the whole window holds),
/// a1 = s1 + b h_all, a2 = s2 + conj(b) t_all and out[j] = (a1 + e a2) / 2,
/// each product and sum in the order the scalar expression wrote them.
void front_end_outputs(const FrontEndSteps& in, cplx* out, std::size_t n);

}  // namespace vab::dsp::simd
