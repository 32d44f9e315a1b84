// Image-method multipath and the time-domain waveform channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "channel/multipath.hpp"
#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/mixer.hpp"
#include "sim/scenario.hpp"
#include "support/channel.hpp"

namespace vab::channel {
namespace {

MultipathConfig shallow() {
  MultipathConfig cfg;
  cfg.water_depth_m = 10.0;
  cfg.surface_loss_db = 1.0;
  cfg.bottom_loss_db = 6.0;
  cfg.max_order = 4;
  return cfg;
}

TEST(ImageMethod, DirectPathFirstAndCorrect) {
  const auto taps = image_method_taps(common::Meters{100.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, shallow());
  ASSERT_FALSE(taps.empty());
  const double direct_r = std::sqrt(100.0 * 100.0 + 16.0);
  EXPECT_NEAR(taps.front().delay_s, direct_r / 1500.0, 1e-9);
  EXPECT_NEAR(taps.front().gain, 1.0 / direct_r, 1e-9);
  EXPECT_EQ(taps.front().surface_bounces, 0);
  EXPECT_EQ(taps.front().bottom_bounces, 0);
}

TEST(ImageMethod, SurfaceBounceHasPhaseFlip) {
  const auto taps = image_method_taps(common::Meters{50.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, shallow());
  bool found = false;
  for (const auto& t : taps) {
    if (t.surface_bounces == 1 && t.bottom_bounces == 0) {
      EXPECT_LT(t.gain, 0.0);  // odd surface count flips the sign
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ImageMethod, TapCountGrowsWithOrder) {
  MultipathConfig lo = shallow();
  lo.max_order = 1;
  MultipathConfig hi = shallow();
  hi.max_order = 5;
  hi.min_relative_amplitude = 1e-6;
  EXPECT_GT(image_method_taps(common::Meters{50.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, hi).size(),
            image_method_taps(common::Meters{50.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, lo).size());
}

TEST(ImageMethod, BounceLossOrdersAmplitudes) {
  MultipathConfig cfg = shallow();
  cfg.bottom_loss_db = 20.0;
  const auto taps = image_method_taps(common::Meters{50.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, cfg);
  double best_bottom = 0.0, best_surface = 0.0;
  for (const auto& t : taps) {
    if (t.bottom_bounces == 1 && t.surface_bounces == 0)
      best_bottom = std::max(best_bottom, std::abs(t.gain));
    if (t.surface_bounces == 1 && t.bottom_bounces == 0)
      best_surface = std::max(best_surface, std::abs(t.gain));
  }
  EXPECT_LT(best_bottom, best_surface);
}

TEST(ImageMethod, SpreadingCoefficientScalesGains) {
  MultipathConfig sph = shallow();
  sph.spreading_coeff = 20.0;
  MultipathConfig cyl = shallow();
  cyl.spreading_coeff = 10.0;
  const auto t_sph = image_method_taps(common::Meters{100.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, sph);
  const auto t_cyl = image_method_taps(common::Meters{100.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, cyl);
  // r^-1 vs r^-0.5 at r~100: ratio ~10.
  EXPECT_NEAR(t_cyl.front().gain / t_sph.front().gain, std::sqrt(100.16), 1.0);
}

TEST(ImageMethod, ValidatesInputs) {
  EXPECT_THROW(image_method_taps(common::Meters{-5.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, shallow()),
               std::invalid_argument);
  EXPECT_THROW(image_method_taps(common::Meters{50.0}, common::Meters{30.0},
                        common::Meters{7.0}, 1500.0, shallow()),
               std::invalid_argument);
}

TEST(WaveformChannel, SingleTapDelaysAndScales) {
  common::Rng rng(1);
  WaveformChannelConfig cfg;
  cfg.fs_hz = 48000.0;
  cfg.taps = single_tap(0.5, 10.0 / 48000.0);  // integer 10-sample delay
  cfg.add_noise = false;
  WaveformChannel ch(cfg, rng);
  rvec x(100, 0.0);
  x[20] = 2.0;
  rvec y;
  ch.propagate_clean(x, y);
  EXPECT_NEAR(y[30], 1.0, 1e-9);
  EXPECT_NEAR(y[29], 0.0, 1e-9);
}

TEST(WaveformChannel, FractionalDelayInterpolates) {
  common::Rng rng(2);
  WaveformChannelConfig cfg;
  cfg.fs_hz = 48000.0;
  cfg.taps = single_tap(1.0, 10.5 / 48000.0);
  cfg.add_noise = false;
  WaveformChannel ch(cfg, rng);
  rvec x(100, 0.0);
  x[20] = 1.0;
  rvec y;
  ch.propagate_clean(x, y);
  EXPECT_NEAR(y[30], 0.5, 1e-9);
  EXPECT_NEAR(y[31], 0.5, 1e-9);
}

TEST(WaveformChannel, NoiseAdditionRaisesFloor) {
  common::Rng rng(3);
  WaveformChannelConfig cfg;
  cfg.fs_hz = 96000.0;
  cfg.taps = single_tap(1e-9, 0.0);
  cfg.noise.site_floor_db = 70.0;
  cfg.add_noise = true;
  WaveformChannel ch(cfg, rng);
  const rvec x(4096, 0.0);
  rvec y;
  ch.propagate(x, y);
  double e = 0.0;
  for (double v : y) e += v * v;
  EXPECT_GT(e, 0.0);
}

TEST(WaveformChannel, MultipathCombImpulseResponse) {
  common::Rng rng(5);
  const auto taps = image_method_taps(common::Meters{60.0}, common::Meters{3.0},
                        common::Meters{5.0}, 1500.0, shallow());
  WaveformChannelConfig cfg;
  cfg.fs_hz = 96000.0;
  cfg.taps = taps;
  cfg.add_noise = false;
  WaveformChannel ch(cfg, rng);
  rvec x(200, 0.0);
  x[0] = 1.0;
  rvec y;
  ch.propagate_clean(x, y);
  // The impulse response contains one spike per tap (within interpolation).
  std::size_t spikes = 0;
  for (double v : y)
    if (std::abs(v) > 1e-4) ++spikes;
  EXPECT_GE(spikes, taps.size());  // fractional delays split across 2 samples
}


// The propagation as the library wrote it before the gather kernel: tap by
// tap, each tx sample scattered to out[n + d] and out[n + d + 1], with d
// moving for a surface-bounced tap under surface-wave motion. Fades are drawn
// from `rng` exactly as the channel draws them. Kept here only, as the
// reference the gather must equal bit for bit.
rvec scatter_reference(const WaveformChannelConfig& cfg, common::Rng rng,
                       const rvec& tx) {
  std::vector<double> fade(cfg.taps.size(), 1.0);
  if (cfg.fading_sigma_db > 0.0) {
    for (auto& f : fade)
      f = std::pow(10.0, rng.gaussian(0.0, cfg.fading_sigma_db) / 20.0);
  }
  const double fs = cfg.fs_hz;
  const double wave_amp = cfg.surface_wave_amplitude_m;
  double max_delay = 0.0;
  for (const auto& t : cfg.taps) max_delay = std::max(max_delay, t.delay_s);
  const double max_breathe =
      wave_amp > 0.0 ? 2.0 * wave_amp * 6.0 / cfg.sound_speed_mps : 0.0;
  const auto extra =
      static_cast<std::size_t>(std::ceil((max_delay + max_breathe) * fs)) + 2;
  rvec out(tx.size() + extra, 0.0);
  for (std::size_t p = 0; p < cfg.taps.size(); ++p) {
    const auto& tap = cfg.taps[p];
    const double g = tap.gain * fade[p];
    const double d0 = tap.delay_s * fs;
    if (wave_amp > 0.0 && tap.surface_bounces > 0) {
      const double omega = common::kTwoPi / (cfg.surface_wave_period_s * fs);
      const double depth_mod = 2.0 * wave_amp * static_cast<double>(tap.surface_bounces) /
                               cfg.sound_speed_mps * fs;
      const double phi0 = 2.0 * common::kPi * static_cast<double>(p) / 7.0;
      for (std::size_t n = 0; n < tx.size(); ++n) {
        const double d = d0 + depth_mod * std::sin(omega * static_cast<double>(n) + phi0);
        const auto d_int = static_cast<std::size_t>(d);
        const double frac = d - static_cast<double>(d_int);
        out[n + d_int] += g * (1.0 - frac) * tx[n];
        out[n + d_int + 1] += g * frac * tx[n];
      }
      continue;
    }
    const auto d_int = static_cast<std::size_t>(d0);
    const double frac = d0 - static_cast<double>(d_int);
    for (std::size_t n = 0; n < tx.size(); ++n) {
      out[n + d_int] += g * (1.0 - frac) * tx[n];
      out[n + d_int + 1] += g * frac * tx[n];
    }
  }
  return out;
}

TEST(Channel, GatherTapsMatchScatterReference) {
  struct Case {
    std::string name;
    WaveformChannelConfig cfg;
  };
  std::vector<Case> cases;
  for (const bool ocean : {false, true}) {
    for (const double range : {25.0, 50.0, 100.0, 200.0, 300.0, 500.0}) {
      sim::Scenario s = ocean ? sim::vab_ocean_scenario() : sim::vab_river_scenario();
      s.range_m = range;
      for (const bool fades : {false, true}) {
        WaveformChannelConfig cfg;
        cfg.fs_hz = s.phy.fs_hz;
        cfg.add_noise = false;
        cfg.fading_sigma_db = fades ? 3.0 : 0.0;
        const std::string tag = std::string(ocean ? "ocean " : "river ") +
                                std::to_string(static_cast<int>(range)) + " m" +
                                (fades ? " faded" : "");
        cfg.taps = sim::forward_taps(s);
        cases.push_back({tag + " forward", cfg});
        cfg.taps = sim::return_taps(s);
        cases.push_back({tag + " return", cfg});
        cfg.taps = sim::blast_taps(s);
        cases.push_back({tag + " blast", cfg});
      }
    }
  }
  // Surface-wave motion at the EXT-2 amplitudes: the moving taps keep their
  // scatter, the static ones between them go through the gather.
  for (const double amp : {0.1, 0.3}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.range_m = 300.0;
    WaveformChannelConfig cfg;
    cfg.fs_hz = s.phy.fs_hz;
    cfg.add_noise = false;
    cfg.fading_sigma_db = 3.0;
    cfg.sound_speed_mps = s.env.sound_speed();
    cfg.surface_wave_amplitude_m = amp;
    cfg.surface_wave_period_s = 5.0;
    cfg.taps = sim::forward_taps(s);
    cases.push_back({"river 300 m forward, surface wave " + std::to_string(amp), cfg});
    cfg.taps = sim::return_taps(s);
    cases.push_back({"river 300 m return, surface wave " + std::to_string(amp), cfg});
  }
  WaveformChannelConfig one;
  one.fs_hz = 96000.0;
  one.taps = single_tap(0.7, 123.37 / 96000.0);
  cases.push_back({"single tap", one});
  WaveformChannelConfig whole = one;
  whole.taps = {PathTap{0.0, 1.0, 0, 0}, PathTap{40.0 / 96000.0, -0.3, 1, 0},
                PathTap{40.25 / 96000.0, 0.2, 1, 1}};
  cases.push_back({"integer delays (frac == 0)", whole});

  common::Rng gen(17);
  const rvec tone = dsp::make_tone(18500.0, 96000.0, 9000, 2.0, 0.3);
  rvec noisy(9000);
  for (auto& v : noisy) v = gen.gaussian();
  for (const Case& c : cases) {
    // A tone and a noise block longer than the cache block, a tx shorter
    // than the delay spread, a single sample and an empty tx.
    for (const rvec& tx : {tone, noisy, rvec(noisy.begin(), noisy.begin() + 7),
                           rvec(1, 0.5), rvec{}}) {
      common::Rng rng(99);
      const WaveformChannel ch(c.cfg, rng);
      rvec got;
      ch.propagate_clean(tx, got);
      const rvec want = scatter_reference(c.cfg, common::Rng(99), tx);
      ASSERT_EQ(got.size(), want.size()) << c.name << " n=" << tx.size();
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
          << c.name << " n=" << tx.size();
    }
  }
}

}  // namespace
}  // namespace vab::channel
