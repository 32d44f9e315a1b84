// Preamble correlation: the sliding dot product of a capture against a
// piecewise-constant reference, and the normalized peak search the
// demodulator's sync runs on it.
//
// The sync reference (settle pilot plus Barker chips, each held for
// samples-per-chip samples and zero-meaned) is a StepSignal with carrier 0:
// a few hundred samples but only a few dozen level steps. Its dot product
// with the capture is therefore summed over the steps, not the samples.
// With P the prefix sum of the capture,
//
//   dot[k] = sum_n sig[k+n] conj(v(n)) = -sum_b conj(D_b) P[k+b],
//
// where b runs over the reference's step positions (the fall back to zero
// at its end included) and D_b is the jump there. The jumps sum to zero, so
// P may start anywhere: it restarts at every block of lags, which keeps each
// prefix sum within a block plus one reference length of samples and its
// rounding bounded even with an unsuppressed carrier blast in the capture.
// The per-step sums run in the dsp::simd::step_sum kernel, across lags.
#pragma once

#include <cstddef>
#include <optional>

#include "common/types.hpp"
#include "dsp/step_signal.hpp"

namespace vab::dsp {

/// For k in [0, sig.size() - ref.length]: dots[k] = the sum over
/// n < ref.length of sig[k+n] conj(v(n)), with v ref's envelope, and
/// energy[k] = the sum of |sig[k+n]|^2 over the same window. Both come from
/// prefix sums restarted at each lag block, so they agree with the direct
/// sums up to rounding. Empty outputs when `sig` is shorter than `ref` or
/// `ref` is empty. Throws std::invalid_argument unless ref.omega is 0.
void step_correlate(const cvec& sig, const StepSignal& ref, cvec& dots, rvec& energy);

struct CorrelationPeak {
  std::size_t index = 0;   ///< start offset of the best alignment
  double value = 0.0;      ///< normalized correlation at the peak
  cplx raw{};              ///< complex correlation (carries phase)
};

/// Finds the best normalized-correlation alignment of `ref` within `sig`:
/// lags are ranked by |dot|^2 / window energy from `step_correlate`, the
/// first maximum winning a tie. At that lag alone `raw` is the direct dot
/// product, summed over the reference samples in order, and `value` is
/// |raw| / (|window| |ref|) with both norms direct sums, so the reported
/// peak is exact. Returns nullopt if `sig` is shorter than `ref` or `value`
/// is below `threshold`.
std::optional<CorrelationPeak> find_peak(const cvec& sig, const StepSignal& ref,
                                         double threshold = 0.0);

/// `find_peak` against a sampled reference, taken as its runs of equal
/// samples (dsp::runs_of).
std::optional<CorrelationPeak> find_peak(const cvec& sig, const cvec& ref,
                                         double threshold = 0.0);

/// Energy of a signal (sum of |x|^2).
double energy(const cvec& x);

}  // namespace vab::dsp
