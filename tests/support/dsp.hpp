// DSP oracles and estimators that tests compare the library against: the
// allocating correlation forms, vector energy/RMS, an FIR's frequency
// response and the Welch PSD. No shipped binary needs them.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/window.hpp"

namespace vab::dsp {

/// Allocating form of `sliding_correlate(sig, ref, out)`.
cvec sliding_correlate(const cvec& sig, const cvec& ref);

/// Allocating form of `normalized_correlate(sig, ref, out)`.
rvec normalized_correlate(const cvec& sig, const cvec& ref);

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
