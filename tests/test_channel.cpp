// Absorption, sound speed and ambient-noise models against
// published reference values; noise synthesis against its own spectral model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "channel/absorption.hpp"
#include "channel/noise.hpp"
#include "channel/soundspeed.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd/simd.hpp"
#include "phy/modem.hpp"
#include "sim/scenario.hpp"
#include "support/channel.hpp"
#include "support/dsp.hpp"

namespace vab::channel {
namespace {

TEST(Absorption, ThorpReferencePoints) {
  // Classic Thorp values: ~1 dB/km at 10 kHz, rising steeply after.
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(1.0)).raw_per_km(), 0.07, 0.03);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(10.0)).raw_per_km(), 1.0, 0.3);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(18.5)).raw_per_km(), 3.6, 0.5);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(100.0)).raw_per_km(), 36.0, 8.0);
}

TEST(Absorption, MonotonicInFrequency) {
  common::DbPerM prev{0.0};
  for (double f = 1.0; f <= 200.0; f *= 1.5) {
    const common::DbPerM a = thorp_absorption(common::Hz::from_khz(f));
    EXPECT_GT(a.raw(), prev.raw());
    prev = a;
  }
}

TEST(Absorption, FrancoisGarrisonSeawaterNearThorpAtMidFreq) {
  WaterProperties sea;
  sea.temperature_c = 4.0;
  sea.salinity_ppt = 35.0;
  sea.depth_m = 100.0;
  sea.ph = 8.0;
  const double fg =
      francois_garrison_absorption(common::Hz::from_khz(18.5), sea).raw_per_km();
  const double th = thorp_absorption(common::Hz::from_khz(18.5)).raw_per_km();
  EXPECT_NEAR(fg, th, th);  // same order of magnitude
}

// Losses the per-call Francois-Garrison expression produced at the river and
// ocean presets' water (18.5 kHz), as exact hex floats. Absorption caches the
// coefficient and absorption_loss is built on it; both must still land on
// these bits.
TEST(Absorption, CachedCoefficientReproducesPinnedLosses) {
  WaterProperties river;
  river.temperature_c = 15.0;
  river.salinity_ppt = 0.5;
  river.depth_m = 5.0;
  river.ph = 7.5;
  WaterProperties ocean;
  ocean.temperature_c = 12.0;
  ocean.salinity_ppt = 35.0;
  ocean.depth_m = 20.0;
  ocean.ph = 8.0;
  struct Pin {
    const WaterProperties* water;
    double range_m;
    double loss_db;
  };
  const Pin pins[] = {
      {&river, 0.5, 0x1.0a1edb63a1b4ep-14},  {&river, 37.0, 0x1.33b3adab32f92p-8},
      {&river, 1000.0, 0x1.03e2223f4beaap-3}, {&river, 4999.5, 0x1.44d259d843c84p-1},
      {&ocean, 0.5, 0x1.6544264b4bb97p-10},  {&ocean, 37.0, 0x1.9d16cc470f8e6p-4},
      {&ocean, 1000.0, 0x1.5ce48d6587f31p+1}, {&ocean, 4999.5, 0x1.b412869db7957p+3},
  };
  const common::Hz f{18500.0};
  const Absorption river_abs(f, river), ocean_abs(f, ocean);
  for (const Pin& p : pins) {
    const Absorption& a = p.water == &river ? river_abs : ocean_abs;
    EXPECT_EQ(a.loss(common::Meters{p.range_m}).raw(), p.loss_db) << p.range_m;
    EXPECT_EQ(absorption_loss(f, common::Meters{p.range_m}, *p.water).raw(), p.loss_db)
        << p.range_m;
  }
  EXPECT_THROW(Absorption(common::Hz{0.0}, river), std::invalid_argument);
}

TEST(Absorption, FreshwaterMuchLowerThanSeawater) {
  WaterProperties fresh;
  fresh.salinity_ppt = 0.3;
  fresh.temperature_c = 15.0;
  fresh.ph = 7.0;
  WaterProperties sea = fresh;
  sea.salinity_ppt = 35.0;
  sea.ph = 8.0;
  // MgSO4/boric relaxation dominates at 18.5 kHz and needs salt.
  EXPECT_LT(francois_garrison_absorption(common::Hz::from_khz(18.5), fresh).raw(),
            0.5 * francois_garrison_absorption(common::Hz::from_khz(18.5), sea).raw());
}

TEST(SoundSpeed, MackenzieReference) {
  // Canonical check: T=10 C, S=35 ppt, D=100 m -> ~1490 m/s.
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 100.0), 1490.3, 1.5);
}

TEST(SoundSpeed, FreshwaterReference) {
  EXPECT_NEAR(freshwater_sound_speed(20.0), 1482.3, 1.0);
  EXPECT_NEAR(freshwater_sound_speed(0.0), 1402.4, 1.0);
}

TEST(Noise, WindDominatesAtCarrier) {
  NoiseConditions calm{0.2, 1.0, -1000.0};
  NoiseConditions windy{0.2, 15.0, -1000.0};
  EXPECT_GT(ambient_nsd(common::Hz{18500.0}, windy),
            ambient_nsd(common::Hz{18500.0}, calm) + common::Db{5.0});
}

TEST(Noise, ShippingMattersAtLowFrequencyOnly) {
  NoiseConditions quiet{0.1, 5.0, -1000.0};
  NoiseConditions busy{1.0, 5.0, -1000.0};
  const common::Db delta_low =
      ambient_nsd(common::Hz{100.0}, busy) - ambient_nsd(common::Hz{100.0}, quiet);
  const common::Db delta_carrier =
      ambient_nsd(common::Hz{18500.0}, busy) - ambient_nsd(common::Hz{18500.0}, quiet);
  EXPECT_GT(delta_low.raw(), 5.0);
  EXPECT_LT(delta_carrier.raw(), 1.0);
}

TEST(Noise, SiteFloorAddsInPower) {
  NoiseConditions base{0.5, 5.0, -1000.0};
  NoiseConditions floored = base;
  floored.site_floor_db = ambient_nsd(common::Hz{18500.0}, base).raw();  // equal power
  EXPECT_NEAR(ambient_nsd(common::Hz{18500.0}, floored).raw(),
              ambient_nsd(common::Hz{18500.0}, base).raw() + 3.0, 0.1);
}

TEST(Noise, LevelScalesWithBandwidth) {
  NoiseConditions c{};
  const common::Db delta = noise_level(common::Hz{18500.0}, common::Hz{1000.0}, c) -
                           noise_level(common::Hz{18500.0}, common::Hz{100.0}, c);
  EXPECT_NEAR(delta.raw(), 10.0, 1e-9);
}

TEST(Noise, SynthesisMatchesModelSpectrum) {
  common::Rng rng(11);
  NoiseConditions cond{0.5, 6.0, 50.0};
  const double fs = 96000.0;
  rvec x;
  synthesize_ambient_noise(1 << 17, common::SampleRateHz{fs}, cond, rng, x);
  const dsp::Psd psd = dsp::welch_psd(x, fs, 4096);
  // Compare synthesized PSD (Pa^2/Hz -> dB re uPa^2/Hz) to the model at a
  // few frequencies across the band.
  for (double f : {2000.0, 10000.0, 18500.0, 30000.0}) {
    const auto k = static_cast<std::size_t>(f / fs * 4096.0);
    const double measured_db_re_upa = psd.power_db[k] + 120.0;  // Pa^2 -> uPa^2
    EXPECT_NEAR(measured_db_re_upa, ambient_nsd(common::Hz{f}, cond).raw(), 2.5)
        << "f=" << f;
  }
}

TEST(Noise, SynthesisDeterministicPerSeed) {
  NoiseConditions cond{};
  common::Rng a(5), b(5);
  rvec x, y;
  synthesize_ambient_noise(1024, common::SampleRateHz{48000.0}, cond, a, x);
  synthesize_ambient_noise(1024, common::SampleRateHz{48000.0}, cond, b, y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

// The synthesis written out the direct way: one complex_gaussian per bin,
// the normalized inverse FFT, then the x nfft rescale. The library fills the
// bins with the batch sampler and skips both power-of-two scalings; the
// samples must not change by one bit.
rvec reference_noise(std::size_t n, double fs, const NoiseConditions& cond,
                     common::Rng& rng) {
  const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(n, 2));
  const double df = fs / static_cast<double>(nfft);
  cvec spec(nfft);
  for (std::size_t k = 1; k < nfft / 2; ++k) {
    const double f = static_cast<double>(k) * df;
    const double psd_pa2 = std::pow(10.0, ambient_nsd(common::Hz{f}, cond).raw() / 10.0) *
                           common::kRefPressurePa * common::kRefPressurePa;
    const double sigma = std::sqrt(psd_pa2 * df / 2.0);
    spec[k] = sigma * rng.complex_gaussian(1.0);
    spec[nfft - k] = std::conj(spec[k]);
  }
  dsp::fft_plan(nfft).inverse(spec.data());
  rvec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = spec[i].real() * static_cast<double>(nfft);
  return out;
}

TEST(Noise, SynthesisEqualsPerBinReference) {
  const NoiseConditions cond{0.5, 6.0, 50.0};
  for (const auto isa : {dsp::simd::Isa::kScalar, dsp::simd::Isa::kAvx2}) {
    if (!dsp::simd::force_isa(isa)) continue;  // AVX2 not available here
    for (std::size_t n : {1, 2, 3, 1000, 81569})
      for (const bool cached : {false, true}) {
        common::Rng a(21), b(21);
        if (cached) {  // enter with a second polar value cached
          a.gaussian();
          b.gaussian();
        }
        rvec got;
        synthesize_ambient_noise(n, common::SampleRateHz{96000.0}, cond, a, got);
        const rvec want = reference_noise(n, 96000.0, cond, b);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
            << dsp::simd::isa_name(isa) << " n=" << n << " cached=" << cached;
        EXPECT_EQ(a.gaussian(), b.gaussian());  // same stream position after
      }
  }
  dsp::simd::reset_isa();
}

// The baseband synthesis stands in for the front end's view of passband
// noise: downconvert, 255-tap low-pass, decimate. Over 16 seeds its band
// powers must match front_end(synthesize_ambient_noise(...)) within the
// 2.5 dB of SynthesisMatchesModelSpectrum, and its total variance within
// 10 %, for both shipped noise fields. Eight bands span the decimated rate,
// the outer two in the filter's transition band, where aliases add.
TEST(Noise, BasebandSynthesisMatchesFrontEndOfPassband) {
  sim::Scenario river = sim::vab_river_scenario();
  sim::Scenario ocean = sim::vab_ocean_scenario();
  constexpr std::size_t kSeeds = 16;
  constexpr std::size_t kBands = 8;
  for (const sim::Scenario* sc : {&river, &ocean}) {
    const phy::PhyConfig& cfg = sc->phy;
    const phy::ReaderDemodulator demod(cfg);
    const std::size_t m = cfg.decimation();
    const std::size_t n = 4096;
    // Passband length whose front-end output is exactly n samples.
    const std::size_t warmup = cfg.lowpass_taps + 8 * m;
    const std::size_t len = warmup + 1 + (n - 1) * m;
    rvec bands_pass(kBands, 0.0), bands_base(kBands, 0.0);
    double var_pass = 0.0, var_base = 0.0;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
      common::Rng rng_pass(1000 + seed), rng_base(2000 + seed);
      rvec pass;
      synthesize_ambient_noise(len, common::SampleRateHz{cfg.fs_hz}, sc->env.noise,
                               rng_pass, pass);
      cvec via_front_end;
      demod.front_end(pass, via_front_end);
      ASSERT_EQ(via_front_end.size(), n);
      cvec base(n);
      add_baseband_noise(common::SampleRateHz{cfg.fs_hz}, common::Hz{cfg.carrier_hz},
                         demod.lowpass_taps(), m, sc->env.noise, rng_base, base);
      ASSERT_EQ(base.size(), n);
      for (auto [x, bands, var] : {std::tuple{via_front_end, &bands_pass, &var_pass},
                                   std::tuple{base, &bands_base, &var_base}}) {
        for (const cplx& v : x) *var += std::norm(v);
        dsp::fft_inplace(x);
        // Bin k sits at k * fs_bb / n, wrapped: bins [n/2, n) are negative.
        for (std::size_t k = 0; k < n; ++k)
          (*bands)[((k + n / 2) % n) * kBands / n] += std::norm(x[k]);
      }
    }
    EXPECT_NEAR(var_base / var_pass, 1.0, 0.10);
    for (std::size_t b = 0; b < kBands; ++b)
      EXPECT_NEAR(10.0 * std::log10(bands_base[b] / bands_pass[b]), 0.0, 2.5)
          << "band " << b << " of " << kBands;
  }
}

}  // namespace
}  // namespace vab::channel
