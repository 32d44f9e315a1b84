// Planned radix-2 FFT and FFT-based convolution/correlation.
//
// Self-contained (no external FFT dependency): iterative in-place
// decimation-in-time, O(n log n) for power-of-two sizes. All transforms run
// through an FftPlan — per-size precomputed twiddle-factor tables and
// bit-reversal permutation — held in a thread-local plan cache, so repeated
// transforms of the same size (the Monte-Carlo steady state) do no trig, no
// table rebuilding and no allocation. Planned transforms are bit-identical
// to the historical direct implementation: the tables are filled with the
// exact same recurrence the unplanned code evaluated inline.
//
// Non-power-of-two inputs are handled by the convolution helpers via
// zero-padding.
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

/// a[i] *= b[i], i in [0, n): the spectral product of the FFT convolution
/// and correlation paths. Written as the explicit (ac - bd, bc + ad)
/// product, not std::complex operator* with its per-product NaN check; the
/// bits agree for finite values.
void cmul_inplace(cplx* a, const cplx* b, std::size_t n);

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

 private:
  void transform(cplx* x, const cplx* twiddle, bool inverse) const;

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

/// In-place inverse FFT (includes 1/N normalization).
void ifft_inplace(cvec& x);

/// Out-of-place forward FFT, zero-padding to the next power of two.
cvec fft(const cvec& x);

/// Out-of-place inverse FFT; `x.size()` must be a power of two.
cvec ifft(const cvec& x);

/// FFT of a real signal (returns full complex spectrum, padded to pow2).
/// Computed with the half-size real-packing trick: an N-point real FFT costs
/// one N/2-point complex FFT plus an O(N) unpack.
cvec fft_real(const rvec& x);

/// Half-size real FFT into a caller-provided buffer: `out` is resized to
/// next_pow2(x.size()) and holds the full Hermitian spectrum.
void fft_real(const rvec& x, cvec& out);

}  // namespace vab::dsp
