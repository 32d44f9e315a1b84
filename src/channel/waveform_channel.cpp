#include "channel/waveform_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"

namespace vab::channel {

WaveformChannel::WaveformChannel(WaveformChannelConfig cfg, common::Rng& rng)
    : cfg_(std::move(cfg)), rng_(&rng) {
  if (cfg_.fs_hz <= 0.0) throw std::invalid_argument("sample rate must be > 0");
  if (cfg_.taps.empty()) throw std::invalid_argument("channel needs at least one tap");
  fade_.resize(cfg_.taps.size(), 1.0);
  if (cfg_.fading_sigma_db > 0.0) {
    for (auto& f : fade_)
      f = std::pow(10.0, rng_->gaussian(0.0, cfg_.fading_sigma_db) / 20.0);
  }
}

double WaveformChannel::max_delay_s() const {
  double d = 0.0;
  for (const auto& t : cfg_.taps) d = std::max(d, t.delay_s);
  return d;
}

void WaveformChannel::propagate_clean(const rvec& tx, rvec& out) const {
  VAB_STAGE("channel.apply_taps");
  const double fs = cfg_.fs_hz;
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  // Extra headroom covers the static delays plus the surface-wave breathing.
  const double max_breathe =
      wave_amp > 0.0 ? 2.0 * wave_amp * 6.0 / cfg_.sound_speed_mps : 0.0;
  const auto extra =
      static_cast<std::size_t>(std::ceil((max_delay_s() + max_breathe) * fs)) + 2;
  out.assign(tx.size() + extra, 0.0);
  for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
    const auto& tap = cfg_.taps[p];
    const double g = tap.gain * fade_[p];
    const double d0 = tap.delay_s * fs;  // fractional sample delay
    if (wave_amp > 0.0 && tap.surface_bounces > 0) {
      // Each surface bounce adds ~2*displacement of path length; taps with
      // more bounces move proportionally more. Random initial phase per tap.
      const double omega = common::kTwoPi / (cfg_.surface_wave_period_s * fs);
      const double depth_mod = 2.0 * wave_amp * static_cast<double>(tap.surface_bounces) /
                               cfg_.sound_speed_mps * fs;
      const double phi0 = 2.0 * common::kPi * static_cast<double>(p) / 7.0;
      for (std::size_t n = 0; n < tx.size(); ++n) {
        const double d = d0 + depth_mod * std::sin(omega * static_cast<double>(n) + phi0);
        const auto d_int = static_cast<std::size_t>(d);
        const double frac = d - static_cast<double>(d_int);
        out[n + d_int] += g * (1.0 - frac) * tx[n];
        out[n + d_int + 1] += g * frac * tx[n];
      }
    } else {
      const auto d_int = static_cast<std::size_t>(d0);
      const double frac = d0 - static_cast<double>(d_int);
      for (std::size_t n = 0; n < tx.size(); ++n) {
        // Linear-interpolated fractional delay.
        out[n + d_int] += g * (1.0 - frac) * tx[n];
        out[n + d_int + 1] += g * frac * tx[n];
      }
    }
  }
}

void WaveformChannel::propagate(const rvec& tx, rvec& out) const {
  propagate_clean(tx, out);
  // Injected impairment before the additive noise floor: a shadowing dip
  // attenuates the signal, not the ambient field.
  if (cfg_.fault && cfg_.fault->enabled()) cfg_.fault->apply_snr_dip(out);
  if (cfg_.add_noise) {
    auto noise_l = dsp::Workspace::local().take_r(0);
    rvec& noise = *noise_l;
    synthesize_ambient_noise(out.size(), common::SampleRateHz{cfg_.fs_hz}, cfg_.noise,
                             *rng_, noise);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += noise[i];
  }
}

std::vector<PathTap> single_tap(double gain, double delay_s) {
  return {PathTap{delay_s, gain, 0, 0}};
}

}  // namespace vab::channel
