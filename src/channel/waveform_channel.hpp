// Time-domain propagation: applies a tap set (delays + gains) to a passband
// waveform, optionally with slow fading and surface-wave motion, and adds
// Wenz ambient noise. The end-to-end waveform simulator runs the same legs
// on the carrier envelope of its signals (propagate_envelope).
#pragma once

#include <vector>

#include "channel/multipath.hpp"
#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsp/step_signal.hpp"
#include "fault/fault.hpp"

namespace vab::channel {

struct WaveformChannelConfig {
  double fs_hz = 192000.0;
  std::vector<PathTap> taps;          ///< from image_method_taps or custom
  NoiseConditions noise{};
  /// Adds passband ambient noise in propagate(). Off by default: the
  /// waveform simulator draws its noise at baseband, after the front end.
  bool add_noise = false;
  double sound_speed_mps = 1500.0;
  /// Std-dev of slow per-tap log-amplitude fading in dB (0 = static channel).
  double fading_sigma_db = 0.0;
  /// Sea-surface wave motion: surface-bounce path lengths breathe by
  /// ~2*amplitude per bounce at the swell period, phase-modulating those
  /// taps (the time-varying channel that stresses the equalizer).
  double surface_wave_amplitude_m = 0.0;
  double surface_wave_period_s = 5.0;
  /// Optional impairment hook: SNR dips (shadowing events) carved into the
  /// propagated waveform. Null (the default) leaves the output bit-identical
  /// to the pre-fault pipeline; the injector draws from its own stream, so
  /// arming it never perturbs the channel Rng either.
  fault::FaultInjector* fault = nullptr;
};

/// Most surface bounces a tap may have under surface-wave motion: the output
/// headroom covers the path-length swing of this many.
inline constexpr int kMaxSurfaceBounces = 6;

class WaveformChannel {
 public:
  /// Throws std::invalid_argument under surface-wave motion for a tap with
  /// more than kMaxSurfaceBounces bounces, or whose path is shorter than its
  /// swing (2 x amplitude x bounces), so its delay would go negative.
  WaveformChannel(WaveformChannelConfig cfg, common::Rng& rng);

  /// Propagates a pressure waveform (Pa, at 1 m from the source) through the
  /// channel into `out`: the pressure at the receiver, same sample rate,
  /// extended by the maximum path delay. Noise scratch comes from the
  /// thread-local dsp::Workspace.
  void propagate(const rvec& tx, rvec& out) const;

  /// `propagate` without the fault hook and the ambient noise.
  void propagate_clean(const rvec& tx, rvec& out) const;

  /// `propagate` on the envelope of a carrier-borne signal (no ambient
  /// noise: the waveform simulator draws it at baseband). A static tap of
  /// gain g and delay d + f samples is the linear-interpolation gather of
  /// `propagate_clean` seen at the carrier: two copies of the input runs,
  /// g(1 - f) e^{-j omega d} at shift d and g f e^{-j omega (d + 1)} at shift
  /// d + 1, so the output equals the passband result's envelope up to
  /// rounding. Taps moving under surface waves hold their delay for
  /// `moving_hold` input samples at a time (the one approximation here). The
  /// fault hook's dip is drawn over out.length samples, the length
  /// `propagate` would return, and applied to the envelope. Throws
  /// std::invalid_argument when the config asks for passband noise.
  void propagate_envelope(const dsp::StepSignal& tx, std::size_t moving_hold,
                          dsp::StepSignal& out) const;

  const std::vector<PathTap>& taps() const { return cfg_.taps; }
  double max_delay_s() const;

 private:
  /// `propagate_clean` under surface-wave motion, tap by tap: a moving tap
  /// scatters each tx sample to its moving delay, a static one is added as
  /// the gather adds it.
  void propagate_surface(const rvec& tx, rvec& out) const;

  /// Samples `propagate_clean` adds past the input: the largest delay plus
  /// the surface-wave breathing, and two samples of interpolation slack.
  std::size_t output_extra() const;

  WaveformChannelConfig cfg_;
  common::Rng* rng_;
  std::vector<double> fade_;  ///< per-tap linear fading factors for this run
};

}  // namespace vab::channel
