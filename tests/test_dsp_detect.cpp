// Correlation (the step correlator against direct sums) and spectral
// estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/mixer.hpp"
#include "dsp/step_signal.hpp"
#include "phy/modem.hpp"
#include "support/dsp.hpp"

namespace vab::dsp {
namespace {

TEST(Correlate, FindsEmbeddedPattern) {
  common::Rng rng(1);
  cvec ref(40);
  for (auto& v : ref) v = rng.complex_gaussian();
  cvec sig(500);
  for (auto& v : sig) v = 0.1 * rng.complex_gaussian();
  const std::size_t at = 123;
  for (std::size_t i = 0; i < ref.size(); ++i) sig[at + i] += ref[i];
  const auto peak = find_peak(sig, ref, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, at);
  EXPECT_GT(peak->value, 0.9);
}

TEST(Correlate, PhaseCarriedInRawValue) {
  cvec ref(32, cplx{1.0, 0.0});
  const cplx rot = std::exp(cplx{0.0, 0.7});
  cvec sig(100);
  for (std::size_t i = 0; i < ref.size(); ++i) sig[20 + i] = rot;
  const auto peak = find_peak(sig, ref, 0.3);
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(std::arg(peak->raw), 0.7, 1e-6);
}

TEST(Correlate, BelowThresholdReturnsNothing) {
  common::Rng rng(2);
  cvec ref(32);
  for (auto& v : ref) v = rng.complex_gaussian();
  cvec noise(400);
  for (auto& v : noise) v = rng.complex_gaussian();
  EXPECT_FALSE(find_peak(noise, ref, 0.9).has_value());
}

cvec random_cvec(std::size_t n, unsigned seed) {
  common::Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = rng.complex_gaussian();
  return x;
}

/// The demodulator's sync reference at `bitrate` (default passband rate).
StepSignal sync_reference(double bitrate) {
  phy::PhyConfig cfg;
  cfg.bitrate_bps = bitrate;
  return phy::ReaderDemodulator(cfg).sync_reference();
}

/// A piecewise-constant complex reference of `length` samples: random run
/// lengths from 1 to 12, random complex levels (complex jumps).
StepSignal random_steps(std::size_t length, unsigned seed) {
  common::Rng rng(seed);
  cvec x(length);
  for (std::size_t i = 0; i < length;) {
    const cplx v = rng.complex_gaussian();
    const auto run = 1 + static_cast<std::size_t>(rng.uniform() * 12.0);
    for (std::size_t j = 0; j < run && i < length; ++j, ++i) x[i] = v;
  }
  StepSignal out;
  runs_of(x, out);
  return out;
}

/// Every lag of step_correlate against the direct sums: the dot within
/// 1e-12 of |window| |ref| and the window energy within 1e-12 of |window|^2,
/// with |window|^2 floored at the capture's mean window energy (a window
/// of a few near-zero samples has no scale of its own); then, unless every
/// lag ties (`ranked` false), find_peak's lag and value against the direct
/// normalized correlation's first maximum.
void expect_matches_direct(const cvec& sig, const StepSignal& ref,
                           const std::string& label, bool ranked = true) {
  const cvec samples = samples_of(ref);
  const cvec want = sliding_correlate(sig, samples);
  cvec dots;
  rvec win;
  step_correlate(sig, ref, dots, win);
  EXPECT_EQ(dots.size(), want.size()) << label;
  EXPECT_EQ(win.size(), want.size()) << label;
  if (dots.size() != want.size() || win.size() != want.size()) return;
  const double ref_norm = std::sqrt(energy(samples));
  const double mean_win = energy(sig) / static_cast<double>(sig.size()) *
                          static_cast<double>(samples.size());
  double worst = 0.0, worst_energy = 0.0;
  std::size_t worst_k = 0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const cvec window(sig.begin() + static_cast<std::ptrdiff_t>(k),
                      sig.begin() + static_cast<std::ptrdiff_t>(k + samples.size()));
    const double e = energy(window);
    const double scale = std::max(e, mean_win);
    const double err = std::abs(dots[k] - want[k]) / (std::sqrt(scale) * ref_norm);
    if (err > worst) {
      worst = err;
      worst_k = k;
    }
    worst_energy = std::max(worst_energy, std::abs(win[k] - e) / scale);
  }
  EXPECT_LE(worst, 1e-12) << label << " worst lag " << worst_k;
  EXPECT_LE(worst_energy, 1e-12) << label;
  if (ranked) {
    const rvec corr = normalized_correlate(sig, samples);
    const auto best = static_cast<std::size_t>(
        std::max_element(corr.begin(), corr.end()) - corr.begin());
    const auto peak = find_peak(sig, ref, 0.0);
    EXPECT_TRUE(peak.has_value()) << label;
    if (peak) {
      EXPECT_EQ(peak->index, best) << label;
      EXPECT_EQ(peak->value, corr[best]) << label;
    }
  }
}

/// Noise with `ref`'s samples added at `at`.
cvec embedded(const StepSignal& ref, std::size_t n, std::size_t at, unsigned seed) {
  cvec sig = random_cvec(n, seed);
  for (auto& v : sig) v *= 0.3;
  const cvec samples = samples_of(ref);
  for (std::size_t i = 0; i < samples.size(); ++i) sig[at + i] += samples[i];
  return sig;
}

TEST(CorrelateSteps, MatchesNaiveOnSyncLengthProblem) {
  // The demod sync shape: the sync reference at 200, 500, 875 and 2000 bps
  // (8, 8, 8.44 and 8 baseband samples per chip at 192 kHz) over a capture
  // the length of a 64-bit frame's.
  unsigned seed = 20;
  for (const double bitrate : {200.0, 500.0, 875.0, 2000.0}) {
    const StepSignal ref = sync_reference(bitrate);
    ASSERT_EQ(ref.omega, 0.0);
    ASSERT_LT(ref.runs(), ref.length / 4) << bitrate;
    expect_matches_direct(embedded(ref, 6769, 1234, seed++), ref,
                          "sync " + std::to_string(bitrate) + " bps");
  }
}

TEST(CorrelateSteps, MatchesNaiveAcrossBlockBoundaries) {
  // Lag counts on both sides of every power of two from 256 to 2048 (where
  // lag blocks end), complex jumps, references short and long.
  unsigned seed = 22;
  for (const std::size_t m : {std::size_t{1}, std::size_t{37}, std::size_t{360}}) {
    const StepSignal ref = random_steps(m, seed++);
    for (const std::size_t lags :
         {std::size_t{1}, std::size_t{2}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{511}, std::size_t{512}, std::size_t{513},
          std::size_t{1023}, std::size_t{1024}, std::size_t{1025}, std::size_t{2047},
          std::size_t{2049}}) {
      // A one-sample reference normalizes every lag to 1: all lags tie.
      expect_matches_direct(random_cvec(lags + m - 1, seed++), ref,
                            "m " + std::to_string(m) + " lags " + std::to_string(lags),
                            m > 1);
    }
  }
}

TEST(CorrelateSteps, ComplexJumpsMatchDirectSums) {
  // A reference whose every step moves both parts, and one whose steps are
  // purely imaginary (no real jumps at all), embedded in noise.
  StepSignal mixed = random_steps(300, 40);
  expect_matches_direct(embedded(mixed, 3000, 777, 41), mixed, "mixed");
  cvec imag(200);
  for (std::size_t i = 0; i < imag.size(); ++i)
    imag[i] = cplx{0.0, (i / 10) % 2 ? 1.0 : -0.5};
  StepSignal pure;
  runs_of(imag, pure);
  expect_matches_direct(embedded(pure, 2500, 1500, 42), pure, "imaginary");
}

TEST(CorrelateSteps, NinetyDbDcOffsetStaysWithinRounding) {
  // E8's notch-off ablation leaves the carrier blast in the baseband: a DC
  // offset ~90 dB over the backscatter. Every lag of a frame-length capture,
  // then the last lags of a 2^20-sample one: the prefix sums restart per lag
  // block, so their rounding does not grow with the capture.
  const double dc = std::pow(10.0, 90.0 / 20.0);
  unsigned seed = 50;
  for (const double bitrate : {500.0, 875.0}) {
    const StepSignal ref = sync_reference(bitrate);
    cvec sig = embedded(ref, 20000, 11000, seed++);
    for (auto& v : sig) v += cplx{dc, 0.3 * dc};
    expect_matches_direct(sig, ref, "dc " + std::to_string(bitrate) + " bps");
  }
  const StepSignal ref = sync_reference(500.0);
  const std::size_t n = std::size_t{1} << 20, tail = 4096;
  cvec sig = random_cvec(n, seed++);
  for (auto& v : sig) v += cplx{dc, 0.3 * dc};
  cvec dots;
  rvec win;
  step_correlate(sig, ref, dots, win);
  const cvec samples = samples_of(ref);
  const std::size_t k0 = dots.size() - tail;
  const cvec tail_sig(sig.begin() + static_cast<std::ptrdiff_t>(k0), sig.end());
  const cvec want = sliding_correlate(tail_sig, samples);
  ASSERT_EQ(want.size(), tail);
  const double ref_norm = std::sqrt(energy(samples));
  double worst = 0.0;
  for (std::size_t i = 0; i < tail; ++i) {
    double e = 0.0;
    for (std::size_t j = 0; j < samples.size(); ++j) e += std::norm(tail_sig[i + j]);
    worst = std::max(worst, std::abs(dots[k0 + i] - want[i]) / (std::sqrt(e) * ref_norm));
    EXPECT_LE(std::abs(win[k0 + i] - e), 1e-12 * e) << "lag " << k0 + i;
  }
  EXPECT_LE(worst, 1e-12);
}

TEST(CorrelateSteps, DegenerateSizes) {
  // Signal equal to reference length: exactly one output lag.
  {
    const StepSignal ref = random_steps(360, 24);
    expect_matches_direct(random_cvec(360, 25), ref, "equal-length");
  }
  // Signal shorter than the reference: no valid alignment.
  cvec dots{cplx{1.0, 0.0}};
  rvec win{1.0};
  step_correlate(random_cvec(100, 26), random_steps(101, 27), dots, win);
  EXPECT_TRUE(dots.empty());
  EXPECT_TRUE(win.empty());
  EXPECT_FALSE(find_peak(random_cvec(100, 26), random_steps(101, 27)).has_value());
  // Empty reference.
  EXPECT_FALSE(find_peak(random_cvec(64, 28), cvec{}).has_value());
  // Single-sample signal and reference: the dot is the product itself.
  {
    const cvec sig{cplx{2.0, 1.0}};
    const cvec ref{cplx{0.5, -0.5}};
    const auto peak = find_peak(sig, ref, 0.0);
    ASSERT_TRUE(peak.has_value());
    EXPECT_EQ(peak->index, 0u);
    EXPECT_EQ(peak->raw, sig[0] * std::conj(ref[0]));
  }
  // Single-tap reference over a long signal.
  expect_matches_direct(random_cvec(1500, 29), random_steps(1, 30), "one-tap-ref", false);
  // A zero reference correlates with nothing.
  {
    const auto peak = find_peak(random_cvec(50, 31), cvec(10, cplx{}), 0.0);
    ASSERT_TRUE(peak.has_value());
    EXPECT_EQ(peak->value, 0.0);
  }
  // Only a carrier-0 envelope is a correlation reference.
  StepSignal carried = random_steps(20, 32);
  carried.omega = 0.1;
  EXPECT_THROW(step_correlate(random_cvec(50, 33), carried, dots, win),
               std::invalid_argument);
}

TEST(CorrelateSteps, NormalizedMatchesNaiveDefinition) {
  // The peak value is |raw| / (|window| |ref|) from serial sums, so it
  // equals the direct normalized correlation at that lag bit for bit.
  const cvec sig = random_cvec(4096, 31);
  const cvec ref = random_cvec(360, 32);
  const rvec direct = normalized_correlate(sig, ref);
  const auto peak = find_peak(sig, ref, 0.0);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->value, direct[peak->index]);
  EXPECT_EQ(peak->index, static_cast<std::size_t>(
                             std::max_element(direct.begin(), direct.end()) -
                             direct.begin()));
  // The threshold applies to that exact value.
  EXPECT_TRUE(find_peak(sig, ref, peak->value).has_value());
  EXPECT_FALSE(find_peak(sig, ref, std::nextafter(peak->value, 2.0)).has_value());
}

TEST(CorrelateSteps, FindPeakAgreesWithNaiveScan) {
  // An embedded pattern in a long capture: the chosen peak must match a
  // naive argmax scan and carry the exact direct-dot raw value.
  common::Rng rng(33);
  cvec ref(360);
  for (auto& v : ref) v = rng.complex_gaussian();
  cvec sig(8000);
  for (auto& v : sig) v = 0.1 * rng.complex_gaussian();
  const std::size_t at = 3217;
  for (std::size_t i = 0; i < ref.size(); ++i) sig[at + i] += ref[i];
  const auto peak = find_peak(sig, ref, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, at);
  cplx raw{};
  for (std::size_t n = 0; n < ref.size(); ++n) raw += sig[at + n] * std::conj(ref[n]);
  EXPECT_EQ(peak->raw, raw);  // recomputed directly -> exactly equal
}

TEST(Correlate, EnergyAndRms) {
  const rvec x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(energy(x), 25.0);
  EXPECT_NEAR(rms(x), std::sqrt(12.5), 1e-12);
  EXPECT_DOUBLE_EQ(rms(rvec{}), 0.0);
}

TEST(Welch, WhiteNoisePsdFlatAtCorrectLevel) {
  common::Rng rng(5);
  const double fs = 10000.0;
  const double sigma = 0.5;
  rvec x(200000);
  for (auto& v : x) v = sigma * rng.gaussian();
  const Psd psd = welch_psd(x, fs, 1024);
  // White noise: PSD = sigma^2 / fs per Hz (one-sided doubles it except at DC).
  const double expect_db = 10.0 * std::log10(2.0 * sigma * sigma / fs);
  double acc = 0.0;
  int cnt = 0;
  for (std::size_t k = 10; k + 10 < psd.freq_hz.size(); ++k) {
    acc += psd.power_db[k];
    ++cnt;
  }
  EXPECT_NEAR(acc / cnt, expect_db, 0.5);
}

TEST(Welch, TonePeakAtCorrectFrequency) {
  const double fs = 48000.0;
  const rvec x = make_tone(1500.0, fs, 48000);
  const Psd psd = welch_psd(x, fs, 2048);
  std::size_t best = 0;
  for (std::size_t k = 1; k < psd.power_db.size(); ++k)
    if (psd.power_db[k] > psd.power_db[best]) best = k;
  EXPECT_NEAR(psd.freq_hz[best], 1500.0, fs / 2048.0);
}

TEST(Welch, BandPowerIntegratesTone) {
  const double fs = 48000.0;
  const rvec x = make_tone(1500.0, fs, 96000, 2.0);  // power = A^2/2 = 2
  const double p = band_power(x, fs, 1200.0, 1800.0, 2048);
  EXPECT_NEAR(p, 2.0, 0.1);
}

}  // namespace
}  // namespace vab::dsp
