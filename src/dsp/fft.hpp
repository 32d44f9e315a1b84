// Planned radix-2 FFT.
//
// Self-contained (no external FFT dependency): iterative decimation-in-time,
// O(n log n) for power-of-two sizes. All transforms run through an FftPlan —
// per-size precomputed twiddle-factor tables and bit-reversal permutation —
// held in a thread-local plan cache, so repeated transforms of the same size
// (the Monte-Carlo steady state) do no trig, no table rebuilding and no
// allocation. Planned transforms are bit-identical to the historical direct
// implementation: the tables are filled with the exact same recurrence the
// unplanned code evaluated inline.
//
// A transform is a permutation, then the butterflies. The permutation is a
// gather, x[i] = src[bitrev[i]], from a copy of the input in the thread's
// dsp::Workspace (or from the caller's own buffer: `bitrev()` and
// `inverse_unscaled_bitrev` let a caller fold its own pass into the gather,
// as the noise synthesis folds its scaling), not an in-place swap loop. The
// butterflies run two radix-2 stages per pass over memory (radix-2^2: each
// pass loads four points and applies the two stages' four butterflies with
// the same table twiddles), so every element sees the same IEEE operations,
// in the same order, as stage-by-stage radix-2; an odd stage count ends on
// one radix-2 stage. See dsp::simd::fft_stages.
//
// `fft` zero-pads a non-power-of-two input to the next power of two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace vab::dsp {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Precomputed transform of one power-of-two size: bit-reversal permutation
/// plus per-stage twiddle tables for both directions. Plans are immutable
/// after construction and safe to share across threads read-only, but the
/// cache below keeps them thread-local so lookups need no lock.
class FftPlan {
 public:
  /// `n` must be a power of two (throws std::invalid_argument otherwise).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform of `x[0..size())`.
  void forward(cplx* x) const;
  /// In-place inverse transform (includes 1/N normalization).
  void inverse(cplx* x) const;
  /// In-place inverse transform without the 1/N pass. Scaling by a power of
  /// two is exact, so this is N * `inverse` bit for bit wherever `inverse`
  /// yields no subnormal.
  void inverse_unscaled(cplx* x) const;

  /// The bit-reversal permutation the transforms start with: they run their
  /// butterflies on x[i] = input[bitrev()[i]].
  const std::uint32_t* bitrev() const { return bitrev_.data(); }
  /// `inverse_unscaled` of a spectrum the caller has already permuted:
  /// x[i] must hold spectrum[bitrev()[i]]. Runs only the butterflies.
  void inverse_unscaled_bitrev(cplx* x) const;

 private:
  void transform(cplx* x, const cplx* twiddle, bool normalize) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversed index of each i
  // Per-stage twiddle factors, stages len=2,4,...,n concatenated; the table
  // for stage `len` starts at offset len/2 - 1 and holds len/2 entries.
  cvec tw_fwd_;
  cvec tw_inv_;
};

/// The calling thread's plan for size `n` (a power of two), building it on
/// first use. Cache hits/misses are counted in the obs metrics
/// `dsp.fft.plan_hits` / `dsp.fft.plan_misses`.
const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT; `x.size()` must be a power of two.
void fft_inplace(cvec& x);

/// Out-of-place forward FFT, zero-padding to the next power of two.
cvec fft(const cvec& x);

}  // namespace vab::dsp
