#include "channel/waveform_channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/units.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"

namespace vab::channel {

WaveformChannel::WaveformChannel(WaveformChannelConfig cfg, common::Rng& rng)
    : cfg_(std::move(cfg)), rng_(&rng) {
  if (cfg_.fs_hz <= 0.0) throw std::invalid_argument("sample rate must be > 0");
  if (cfg_.taps.empty()) throw std::invalid_argument("channel needs at least one tap");
  if (cfg_.surface_wave_amplitude_m > 0.0) {
    // The surface-wave delay of a tap swings by +/- depth_mod samples around
    // its static delay: it must stay non-negative, and the output headroom
    // covers at most kMaxSurfaceBounces bounces.
    for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
      const auto& tap = cfg_.taps[p];
      if (tap.surface_bounces > kMaxSurfaceBounces)
        throw std::invalid_argument(
            "surface-wave tap " + std::to_string(p) + " has " +
            std::to_string(tap.surface_bounces) + " surface bounces; at most " +
            std::to_string(kMaxSurfaceBounces) + " are supported");
      const double swing_m = 2.0 * cfg_.surface_wave_amplitude_m *
                             static_cast<double>(tap.surface_bounces);
      if (tap.surface_bounces > 0 && tap.delay_s * cfg_.sound_speed_mps < swing_m)
        throw std::invalid_argument(
            "surface-wave tap " + std::to_string(p) +
            ": path shorter than 2 x wave amplitude x bounces (negative delay)");
    }
  }
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

namespace {
/// Output samples per block of the static-tap gather: 16 KiB of `out`, which
/// stays in L1 while every tap adds into it.
constexpr std::size_t kGatherBlock = 2048;

/// o[k] += c1 * x[k], then o[k] += c0 * x[k + 1], for k in [0, n). The
/// main loop's trip count is a multiple of 4, which lets the compiler
/// vectorize it at -O2 without a scalar epilogue; each element keeps its
/// own two additions in order.
void gather_tap(double* __restrict o, const double* __restrict x, std::size_t n,
                double c0, double c1) {
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t k = 0;
  for (; k < n4; ++k) o[k] = (o[k] + c1 * x[k]) + c0 * x[k + 1];
  for (; k < n; ++k) o[k] = (o[k] + c1 * x[k]) + c0 * x[k + 1];
}

/// Adds one static tap (gain g, delay d0 samples) to the output block
/// o[b0, b1). With d0 = d + frac, out[m] gets g*frac * tx[m-d-1] and then
/// g*(1-frac) * tx[m-d]: exactly the additions, in the same order, that
/// scattering each tx[n] to out[n+d] and out[n+d+1] makes. out[d] has no
/// tx[-1] term and out[n_tx+d] no tx[n_tx] term. `o` must hold n_tx + d + 1
/// samples.
void add_static_tap(const double* x, std::size_t n_tx, double* o, std::size_t b0,
                    std::size_t b1, double g, double d0) {
  const auto d = static_cast<std::size_t>(d0);
  const double frac = d0 - static_cast<double>(d);
  const double c0 = g * (1.0 - frac);
  const double c1 = g * frac;
  if (d >= b0 && d < b1) o[d] += c0 * x[0];
  const std::size_t lo = std::max(b0, d + 1);
  const std::size_t hi = std::min(b1, n_tx + d);
  if (lo < hi) gather_tap(o + lo, x + (lo - d - 1), hi - lo, c0, c1);
  if (n_tx + d >= b0 && n_tx + d < b1) o[n_tx + d] += c1 * x[n_tx - 1];
}
}  // namespace

void WaveformChannel::propagate_clean(const rvec& tx, rvec& out) const {
  VAB_STAGE("channel.apply_taps");
  const double fs = cfg_.fs_hz;
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  // Extra headroom covers the static delays plus the surface-wave breathing.
  const double bounces = static_cast<double>(kMaxSurfaceBounces);
  const double max_breathe =
      wave_amp > 0.0 ? 2.0 * wave_amp * bounces / cfg_.sound_speed_mps : 0.0;
  const auto extra =
      static_cast<std::size_t>(std::ceil((max_delay_s() + max_breathe) * fs)) + 2;
  out.assign(tx.size() + extra, 0.0);
  if (tx.empty()) return;
  bool moving = false;
  for (const auto& tap : cfg_.taps) moving = moving || tap.surface_bounces > 0;
  if (wave_amp > 0.0 && moving) {
    propagate_surface(tx, out);
    return;
  }

  // Static taps over cache-sized blocks of `out`, taps in order within each
  // block, so every out[m] sees its additions in the scatter's order.
  for (std::size_t b0 = 0; b0 < out.size(); b0 += kGatherBlock) {
    const std::size_t b1 = std::min(out.size(), b0 + kGatherBlock);
    for (std::size_t p = 0; p < cfg_.taps.size(); ++p)
      add_static_tap(tx.data(), tx.size(), out.data(), b0, b1,
                     cfg_.taps[p].gain * fade_[p], cfg_.taps[p].delay_s * fs);
  }
}

void WaveformChannel::propagate_surface(const rvec& tx, rvec& out) const {
  const double fs = cfg_.fs_hz;
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
    const auto& tap = cfg_.taps[p];
    const double g = tap.gain * fade_[p];
    const double d0 = tap.delay_s * fs;  // fractional sample delay
    if (tap.surface_bounces > 0) {
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
      add_static_tap(tx.data(), tx.size(), out.data(), 0, out.size(), g, d0);
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
