// Image-method multipath and the time-domain waveform channel.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/multipath.hpp"
#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "dsp/mixer.hpp"

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

TEST(DelaySpread, ZeroForSinglePath) {
  EXPECT_DOUBLE_EQ(rms_delay_spread({PathTap{0.1, 1.0, 0, 0}}), 0.0);
}

TEST(DelaySpread, TwoEqualPaths) {
  std::vector<PathTap> taps{{0.0, 1.0, 0, 0}, {1e-3, 1.0, 0, 0}};
  EXPECT_NEAR(rms_delay_spread(taps), 0.5e-3, 1e-9);
  EXPECT_NEAR(coherence_bandwidth_hz(taps), 1.0 / (5.0 * 0.5e-3), 1.0);
}

TEST(DelaySpread, GrowsWithShallowerWater) {
  MultipathConfig deep = shallow();
  deep.water_depth_m = 50.0;
  MultipathConfig shal = shallow();
  shal.water_depth_m = 6.0;
  const auto t_deep = image_method_taps(common::Meters{100.0}, common::Meters{3.0},
                        common::Meters{7.0}, 1500.0, deep);
  const auto t_shal = image_method_taps(common::Meters{100.0}, common::Meters{3.0},
                        common::Meters{3.0}, 1500.0, shal);
  // Shallower water: bounce paths are closer in length to the direct path
  // but more numerous and stronger relative to it at the same order count.
  EXPECT_GT(rms_delay_spread(t_deep), 0.0);
  EXPECT_GT(rms_delay_spread(t_shal), 0.0);
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

}  // namespace
}  // namespace vab::channel
