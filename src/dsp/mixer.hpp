// Numerically controlled oscillator and complex down/up-conversion.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp {

/// Phase-accumulating oscillator; phase-continuous across chunks.
class Nco {
 public:
  Nco(double freq_hz, double fs_hz, double phase_rad = 0.0);

  /// Next complex exponential sample e^{j(2*pi*f*n/fs + phase0)}.
  cplx next();
  /// Next real cosine sample.
  double next_cos();

  /// Instantaneous phase in radians.
  double phase() const { return phase_; }

 private:
  double step_;
  double phase_;
};

/// The first n samples of e^{j(2 pi f i / fs + phase)} exactly as the mixers
/// below multiply by them: from a per-thread oscillator cache, valid until
/// the next call into this file on the same thread. nullptr when n is over
/// the cache's cap; compute the rotations directly then.
const cvec* cached_tone(double freq_hz, double fs_hz, double phase_rad, std::size_t n);

/// Generates a real tone of length n.
rvec make_tone(double freq_hz, double fs_hz, std::size_t n, double amplitude = 1.0,
               double phase_rad = 0.0);

/// Out-parameter form of `make_tone`; allocation-free when `out` has capacity.
void make_tone(double freq_hz, double fs_hz, std::size_t n, double amplitude,
               double phase_rad, rvec& out);

/// Complex baseband conversion: y[n] = x[n] * e^{-j 2 pi f n / fs}.
/// (Follow with a low-pass to complete the downconversion.)
cvec downconvert(const rvec& x, double freq_hz, double fs_hz, double phase_rad = 0.0);

/// Out-parameter form of `downconvert`.
void downconvert(const rvec& x, double freq_hz, double fs_hz, double phase_rad,
                 cvec& out);

}  // namespace vab::dsp
