// Ambient ocean noise: Wenz-model spectral density and time-domain
// synthesis of noise with that spectrum.
//
// Four classical components (Wenz 1962, as parameterized in Stojanovic
// 2007): turbulence (< 10 Hz), distant shipping (10-100 Hz), wind-driven
// surface agitation (100 Hz - 100 kHz, dominant at our 18.5 kHz carrier),
// and thermal noise (> 100 kHz). Levels in dB re 1 uPa^2/Hz.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace vab::channel {

struct NoiseConditions {
  double shipping = 0.5;        ///< shipping activity factor in [0, 1]
  double wind_speed_mps = 5.0;  ///< wind speed at the surface, m/s
  /// Extra site noise floor on top of Wenz (e.g. river/harbor machinery),
  /// dB re 1 uPa^2/Hz; combined by power addition.
  double site_floor_db = -1000.0;
};

/// Noise level in dB re 1 uPa over bandwidth `bw` centered at `f`: the
/// total Wenz noise spectral density (power sum of the four components and
/// the site floor) plus 10 log10(bw), the NSD assumed flat over the band —
/// true for our narrow signals.
common::Db noise_level(common::Hz f, common::Hz bw, const NoiseConditions& cond);

/// Synthesizes `n` samples of real ambient noise (pressure in Pa) at sample
/// rate `fs` whose PSD follows the Wenz model: white Gaussian noise shaped
/// in the frequency domain. The spectrum scratch comes from the thread-local
/// dsp::Workspace and the inverse FFT runs in place, so steady-state
/// synthesis does not allocate.
void synthesize_ambient_noise(std::size_t n, common::SampleRateHz fs,
                              const NoiseConditions& cond, common::Rng& rng, rvec& out);

/// Adds to `bb` the ambient noise as a receiver front end hears it:
/// passband noise at rate `fs`, downconverted at `carrier`, filtered by the
/// real FIR `lowpass` and decimated by `decimation`, one sample per element
/// of bb. That noise is a stationary complex Gaussian sequence at
/// fs / decimation whose two-sided PSD is the Wenz NSD at carrier + f,
/// halved, times |H(f)|^2 of `lowpass`, summed over the decimation aliases.
/// Frequencies where |H(f)|^2 is under 1e-11 (110 dB below a unity
/// passband: the demodulator's Kaiser stopband, the -2 carrier image among
/// them) are dropped. Drawn from a next_pow2(bb.size())-point spectrum in
/// the thread's dsp::Workspace; the per-bin sigmas are cached per thread
/// like the passband ones. The waveform trial's noise adder.
void add_baseband_noise(common::SampleRateHz fs, common::Hz carrier, const rvec& lowpass,
                        std::size_t decimation, const NoiseConditions& cond,
                        common::Rng& rng, cvec& bb);

}  // namespace vab::channel
