// Correlation and spectral estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/mixer.hpp"
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

void expect_correlates_equivalent(const cvec& sig, const cvec& ref,
                                  const char* label) {
  const cvec naive = sliding_correlate_naive(sig, ref);
  const cvec fast = sliding_correlate(sig, ref);
  ASSERT_EQ(fast.size(), naive.size()) << label;
  double scale = 0.0;
  for (const auto& v : naive) scale = std::max(scale, std::abs(v));
  for (std::size_t k = 0; k < naive.size(); ++k)
    EXPECT_LE(std::abs(fast[k] - naive[k]), 1e-9 * std::max(scale, 1.0))
        << label << " lag " << k;
}

TEST(CorrelateFft, MatchesNaiveOnSyncLengthProblem) {
  // The demod sync shape: long capture, a few-hundred-sample reference.
  // Big enough that the FFT overlap-save path is guaranteed to engage.
  expect_correlates_equivalent(random_cvec(4096, 20), random_cvec(360, 21),
                               "sync-length");
}

TEST(CorrelateFft, MatchesNaiveAcrossBlockBoundaries) {
  // Lengths chosen so the overlap-save loop runs several partial blocks.
  expect_correlates_equivalent(random_cvec(3000, 22), random_cvec(257, 23),
                               "multi-block");
}

TEST(CorrelateFft, DegenerateSizes) {
  // Signal equal to reference length: exactly one output lag.
  {
    const cvec sig = random_cvec(360, 24);
    const cvec ref = random_cvec(360, 25);
    const cvec out = sliding_correlate(sig, ref);
    ASSERT_EQ(out.size(), 1u);
    expect_correlates_equivalent(sig, ref, "equal-length");
  }
  // Signal shorter than the reference: no valid alignment.
  EXPECT_TRUE(sliding_correlate(random_cvec(100, 26), random_cvec(101, 27)).empty());
  // Empty reference.
  EXPECT_TRUE(sliding_correlate(random_cvec(64, 28), cvec{}).empty());
  // Single-sample signal and reference.
  {
    const cvec sig{cplx{2.0, 1.0}};
    const cvec ref{cplx{0.5, -0.5}};
    const cvec out = sliding_correlate(sig, ref);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], sig[0] * std::conj(ref[0]));
  }
  // Single-tap reference over a long signal.
  expect_correlates_equivalent(random_cvec(512, 29), random_cvec(1, 30),
                               "one-tap-ref");
}

TEST(CorrelateFft, NormalizedMatchesNaiveDefinition) {
  const cvec sig = random_cvec(4096, 31);
  const cvec ref = random_cvec(360, 32);
  const rvec fast = normalized_correlate(sig, ref);
  const cvec dot = sliding_correlate_naive(sig, ref);
  const double ref_norm = std::sqrt(energy(ref));
  ASSERT_EQ(fast.size(), dot.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    double win = 0.0;
    for (std::size_t n = 0; n < ref.size(); ++n) win += std::norm(sig[k + n]);
    const double expect = std::abs(dot[k]) / (std::sqrt(win) * ref_norm);
    EXPECT_NEAR(fast[k], expect, 1e-9) << "lag " << k;
  }
}

TEST(CorrelateFft, FindPeakAgreesWithNaiveScan) {
  // Same embedded-pattern setup as FindsEmbeddedPattern but long enough to
  // force the FFT path; the chosen peak must match a naive argmax scan and
  // carry the exact direct-dot raw value.
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
