// Correlation-based detection: sliding correlation, normalized matched
// filtering and peak search, used for preamble detection and symbol sync.
//
// The sliding dot product dominates demodulator sync cost, so it runs as an
// FFT overlap-save cross-correlation (O(N log M) per output block) whenever
// the reference is long enough to amortize the transforms; tiny problems
// fall back to the direct O(N·M) loop. The normalization stays a separate
// O(N) running-energy pass either way. `sliding_correlate_naive` keeps the
// direct loop exported as the reference implementation for equivalence tests
// and benchmarks.
#pragma once

#include <cstddef>
#include <optional>

#include "common/types.hpp"

namespace vab::dsp {

/// Sliding dot product of `sig` against `ref` (valid region only):
/// out[k] = sum_n sig[k+n] * conj(ref[n]), k in [0, sig.size()-ref.size()],
/// written into `out` (resized to the valid length) without allocating when
/// `out` already has capacity.
void sliding_correlate(const cvec& sig, const cvec& ref, cvec& out);

/// Direct O(N·M) time-domain reference implementation of the same contract.
cvec sliding_correlate_naive(const cvec& sig, const cvec& ref);

/// Normalized sliding correlation in [0, 1]: |dot| / (|sig_window| * |ref|),
/// written into `out`.
void normalized_correlate(const cvec& sig, const cvec& ref, rvec& out);

struct CorrelationPeak {
  std::size_t index = 0;   ///< start offset of the best alignment
  double value = 0.0;      ///< normalized correlation at the peak
  cplx raw{};              ///< complex correlation (carries phase)
};

/// Finds the best normalized-correlation alignment of `ref` within `sig`.
/// Returns nullopt if `sig` is shorter than `ref` or the peak is below
/// `threshold`. The raw complex correlation at the peak is recomputed with
/// the direct dot product, so its phase is exact regardless of which
/// correlation backend scanned the signal.
std::optional<CorrelationPeak> find_peak(const cvec& sig, const cvec& ref,
                                         double threshold = 0.0);

/// Energy of a signal (sum of |x|^2).
double energy(const cvec& x);

}  // namespace vab::dsp
