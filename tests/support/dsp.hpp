// DSP oracles and estimators that tests compare the library against: the
// direct sliding correlation, the FFT peak search the step correlator
// replaced, the radix-2 swap-loop FFT and the linear-scan event merge the
// library's FFT passes and heap merge replaced, vector energy/RMS, an FIR's
// frequency response and the Welch PSD. No shipped binary needs them.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "common/types.hpp"
#include "dsp/correlate.hpp"
#include "dsp/step_signal.hpp"
#include "dsp/window.hpp"

namespace vab::dsp {

/// Direct sliding dot product: out[k] = sum_n sig[k+n] * conj(ref[n]) for
/// k in [0, sig.size() - ref.size()], each lag summed in n order. Empty
/// when `ref` is empty or longer than `sig`.
cvec sliding_correlate(const cvec& sig, const cvec& ref);

/// Direct normalized correlation |dot[k]| / (|window k| |ref|), each norm a
/// serial sum (the window's floored at 1e-30 like find_peak's); all zeros
/// when `ref` has no energy.
rvec normalized_correlate(const cvec& sig, const cvec& ref);

/// The envelope of `x` (carrier ignored) as x.length samples.
cvec samples_of(const StepSignal& x);

/// The peak search the demodulator's sync ran before the step correlator:
/// sliding dots by FFT overlap-save (the direct loop below 2^14 lag-taps or
/// for references of 8 samples or fewer), a running window energy, the
/// first maximum of |dot| / (|window| |ref|), and the direct dot at the peak
/// as `raw`. Kept as the A/B reference for the sync decisions.
std::optional<CorrelationPeak> fft_find_peak(const cvec& sig, const cvec& ref,
                                             double threshold);

/// The FFT FftPlan ran before its gather permutation and radix-2^2 passes,
/// in place on x (a power-of-two size): the bit-reversal swap loop, then one
/// radix-2 stage per pass, each stage's twiddles from the recurrence
/// w *= e^{-+2 pi i / len}, the butterfly v = x[hi] * w spelled (ac - bd,
/// bc + ad), x[lo] + v, x[lo] - v; `normalize` then scales every value by
/// 1/n as (inv_n * re, inv_n * im). The bit-exact oracle of FftPlan's
/// forward (inverse = false), inverse and inverse_unscaled.
void fft_radix2_reference(cvec& x, bool inverse, bool normalize);

/// merge_events by a linear scan: at every output run, the smallest next
/// sample over all the streams, then every stream stepping there in stream
/// order. The oracle of the library's heap merge.
void merge_events_linear(std::span<const EventStream> streams, StepSignal& out);

/// Energy of a real signal (sum of x^2, in index order).
double energy(const rvec& x);

/// RMS value.
double rms(const rvec& x);
double rms(const cvec& x);

/// Frequency response magnitude of an FIR at `f_hz` (fs `fs_hz`).
double fir_response_at(const rvec& taps, double f_hz, double fs_hz);

struct Psd {
  rvec freq_hz;     ///< bin centers, 0..fs/2 for real input
  rvec power_db;    ///< 10*log10 of PSD (per Hz)
};

/// Welch PSD of a real signal: `segment` samples per segment (power of two),
/// 50% overlap, Hann window. PSD is one-sided, in dB re (input unit)^2/Hz.
Psd welch_psd(const rvec& x, double fs_hz, std::size_t segment = 1024,
              WindowType window = WindowType::kHann);

/// Total band power (linear) of a real signal between f_lo and f_hi,
/// integrated from the Welch PSD.
double band_power(const rvec& x, double fs_hz, double f_lo, double f_hi,
                  std::size_t segment = 1024);

}  // namespace vab::dsp
