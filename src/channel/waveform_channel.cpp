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

/// The delay, in samples, of surface-bounced tap p under swell: each bounce
/// adds ~2 x displacement of path length, so taps with more bounces move
/// proportionally more, each from its own initial phase.
struct SwellDelay {
  double d0 = 0.0;         ///< static delay
  double depth_mod = 0.0;  ///< swing amplitude
  double swell = 0.0;      ///< swell, radians per sample
  double phi0 = 0.0;       ///< initial phase

  SwellDelay(const WaveformChannelConfig& cfg, std::size_t p) {
    const auto& tap = cfg.taps[p];
    const double fs = cfg.fs_hz;
    d0 = tap.delay_s * fs;
    depth_mod = 2.0 * cfg.surface_wave_amplitude_m *
                static_cast<double>(tap.surface_bounces) / cfg.sound_speed_mps * fs;
    swell = common::kTwoPi / (cfg.surface_wave_period_s * fs);
    phi0 = 2.0 * common::kPi * static_cast<double>(p) / 7.0;
  }
  /// Delay of the tx sample at (fractional) index n.
  double at(double n) const { return d0 + depth_mod * std::sin(swell * n + phi0); }
};
}  // namespace

std::size_t WaveformChannel::output_extra() const {
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  const double bounces = static_cast<double>(kMaxSurfaceBounces);
  const double max_breathe =
      wave_amp > 0.0 ? 2.0 * wave_amp * bounces / cfg_.sound_speed_mps : 0.0;
  return static_cast<std::size_t>(std::ceil((max_delay_s() + max_breathe) * cfg_.fs_hz)) +
         2;
}

void WaveformChannel::propagate_clean(const rvec& tx, rvec& out) const {
  VAB_STAGE("channel.apply_taps");
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  out.assign(tx.size() + output_extra(), 0.0);
  if (tx.empty()) return;
  bool moving = false;
  for (const auto& tap : cfg_.taps) moving = moving || tap.surface_bounces > 0;
  if (wave_amp > 0.0 && moving) {
    propagate_surface(tx, out);
    return;
  }

  // Static taps over cache-sized blocks of `out`, taps in order within each
  // block, so every out[m] sees its additions in the scatter's order.
  const double fs = cfg_.fs_hz;
  for (std::size_t b0 = 0; b0 < out.size(); b0 += kGatherBlock) {
    const std::size_t b1 = std::min(out.size(), b0 + kGatherBlock);
    for (std::size_t p = 0; p < cfg_.taps.size(); ++p)
      add_static_tap(tx.data(), tx.size(), out.data(), b0, b1,
                     cfg_.taps[p].gain * fade_[p], cfg_.taps[p].delay_s * fs);
  }
}

void WaveformChannel::propagate_surface(const rvec& tx, rvec& out) const {
  const double fs = cfg_.fs_hz;
  for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
    const auto& tap = cfg_.taps[p];
    const double g = tap.gain * fade_[p];
    const double d0 = tap.delay_s * fs;  // fractional sample delay
    if (tap.surface_bounces > 0) {
      const SwellDelay delay(cfg_, p);
      for (std::size_t n = 0; n < tx.size(); ++n) {
        const double d = delay.at(static_cast<double>(n));
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

namespace {
/// Delay d0 = d + frac samples as the two carrier phasors of the
/// interpolating tap: g(1 - frac) e^{-j omega d} and g frac e^{-j omega (d + 1)}.
struct TapPhasors {
  std::size_t d = 0;
  cplx a, b;
};

TapPhasors tap_phasors(double g, double d0, double omega) {
  TapPhasors t;
  t.d = static_cast<std::size_t>(d0);
  const double frac = d0 - static_cast<double>(t.d);
  t.a = std::polar(g * (1.0 - frac), -omega * static_cast<double>(t.d));
  t.b = std::polar(g * frac, -omega * static_cast<double>(t.d + 1));
  return t;
}

/// The steps of a moving tap's two copies (a and b of `tap_phasors`). The
/// output is cut into `hold`-sample chunks on a grid shared by every moving
/// tap, and over each chunk the tap keeps one delay: the one propagate_surface
/// gives the tx sample whose static delay lands on the chunk's first output
/// sample m0. Positions are absolute and unique, in sample order; `length`
/// bounds the output.
void moving_tap_events(const dsp::StepSignal& tx, std::size_t hold, std::size_t length,
                       double g, const SwellDelay& delay,
                       std::vector<dsp::StepEvent>& out_a,
                       std::vector<dsp::StepEvent>& out_b) {
  out_a.clear();
  out_b.clear();
  if (tx.runs() == 0) return;
  // tx steps at its run starts and falls to zero at its length: step q is
  // at step_pos(q) and sets the envelope to step_value(q).
  const std::size_t steps = tx.runs() + 1;
  const auto step_pos = [&](std::size_t q) {
    return static_cast<std::ptrdiff_t>(q < tx.runs() ? tx.starts[q] : tx.length);
  };
  const auto step_value = [&](std::size_t q) {
    return q < tx.runs() ? tx.values[q] : cplx{};
  };
  struct Copy {
    std::vector<dsp::StepEvent>* out;
    std::size_t q = 0;  // first step past the chunk's first input sample
    cplx prev;          // contribution on the previous output sample
    void emit(std::size_t pos, cplx c) {
      if (c == prev) return;
      out->push_back({pos, c - prev});
      prev = c;
    }
  };
  Copy copies[] = {{&out_a, 0, {}}, {&out_b, 0, {}}};
  for (std::size_t m0 = 0; m0 < length; m0 += hold) {
    const std::size_t m1 = std::min(m0 + hold, length);
    const TapPhasors t =
        tap_phasors(g, delay.at(static_cast<double>(m0) - delay.d0), tx.omega);
    for (std::size_t c = 0; c < 2; ++c) {
      Copy& cp = copies[c];
      const std::size_t shift = t.d + c;
      const cplx phasor = c == 0 ? t.a : t.b;
      // Output samples [m0, m1) see input samples [in0, in1).
      const auto in0 =
          static_cast<std::ptrdiff_t>(m0) - static_cast<std::ptrdiff_t>(shift);
      const auto in1 = in0 + static_cast<std::ptrdiff_t>(m1 - m0);
      while (cp.q > 0 && step_pos(cp.q - 1) > in0) --cp.q;
      while (cp.q < steps && step_pos(cp.q) <= in0) ++cp.q;
      cp.emit(m0, cp.q > 0 ? phasor * step_value(cp.q - 1) : cplx{});
      for (std::size_t k = cp.q; k < steps && step_pos(k) < in1; ++k)
        cp.emit(static_cast<std::size_t>(step_pos(k)) + shift, phasor * step_value(k));
    }
  }
  for (Copy& cp : copies)
    if (cp.prev != cplx{}) cp.out->push_back({length, -cp.prev});
}
}  // namespace

void WaveformChannel::propagate_envelope(const dsp::StepSignal& tx,
                                         std::size_t moving_hold,
                                         dsp::StepSignal& out) const {
  if (cfg_.add_noise)
    throw std::invalid_argument("propagate_envelope adds no passband noise");
  if (moving_hold == 0) throw std::invalid_argument("moving-tap hold must be >= 1");
  out.reset(tx.omega, tx.length + output_extra());

  std::vector<dsp::StepEvent> events;
  dsp::step_events(tx, events);
  std::vector<std::vector<dsp::StepEvent>> moving;
  moving.reserve(2 * cfg_.taps.size());
  std::vector<dsp::EventStream> streams;
  streams.reserve(2 * cfg_.taps.size());
  for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
    const auto& tap = cfg_.taps[p];
    const double g = tap.gain * fade_[p];
    if (cfg_.surface_wave_amplitude_m > 0.0 && tap.surface_bounces > 0) {
      moving.emplace_back();
      moving.emplace_back();
      moving_tap_events(tx, moving_hold, out.length, g, SwellDelay(cfg_, p),
                        moving[moving.size() - 2], moving.back());
      continue;
    }
    const TapPhasors t = tap_phasors(g, tap.delay_s * cfg_.fs_hz, tx.omega);
    if (t.a != cplx{}) streams.push_back({events, t.d, t.a});
    if (t.b != cplx{}) streams.push_back({events, t.d + 1, t.b});
  }
  for (const auto& events_m : moving) streams.push_back({events_m, 0, cplx{1.0, 0.0}});
  dsp::merge_events(streams, out);

  if (cfg_.fault && cfg_.fault->enabled()) {
    if (const auto dip = cfg_.fault->draw_snr_dip(out.length)) {
      const std::size_t starts[] = {0, dip->start, dip->start + dip->len};
      const double gains[] = {1.0, dip->gain, 1.0};
      dsp::StepSignal clean = std::move(out);
      dsp::modulate(clean, starts, gains, out);
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

}  // namespace vab::channel
