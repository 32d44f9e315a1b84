// FM0 uplink coding, PIE downlink coding, SIC and the equalizer.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "phy/equalizer.hpp"
#include "phy/fm0.hpp"
#include "phy/pie.hpp"
#include "phy/sic.hpp"
#include "support/phy.hpp"

namespace vab::phy {
namespace {

TEST(Fm0, EncodeDecodeRoundTrip) {
  common::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const bitvec bits = rng.random_bits(64);
    EXPECT_EQ(fm0_decode(fm0_encode(bits)), bits);
  }
}

TEST(Fm0, TwoChipsPerBit) {
  EXPECT_EQ(fm0_encode(bitvec(10, 1)).size(), 20u);
}

TEST(Fm0, AlwaysTransitionsAtBitBoundary) {
  common::Rng rng(2);
  const bitvec bits = rng.random_bits(100);
  const bitvec chips = fm0_encode(bits);
  for (std::size_t b = 1; b < bits.size(); ++b) {
    // Last chip of bit b-1 differs from first chip of bit b.
    EXPECT_NE(chips[2 * b - 1], chips[2 * b]) << "bit " << b;
  }
}

TEST(Fm0, MaxRunLengthIsTwo) {
  common::Rng rng(3);
  const bitvec chips = fm0_encode(rng.random_bits(500));
  std::size_t run = 1, max_run = 1;
  for (std::size_t i = 1; i < chips.size(); ++i) {
    run = (chips[i] == chips[i - 1]) ? run + 1 : 1;
    max_run = std::max(max_run, run);
  }
  EXPECT_LE(max_run, 2u);
}

TEST(Fm0, DcBalanced) {
  common::Rng rng(4);
  const bitvec chips = fm0_encode(rng.random_bits(2000));
  double sum = 0.0;
  for (auto c : chips) sum += c ? 1.0 : -1.0;
  EXPECT_LT(std::abs(sum) / static_cast<double>(chips.size()), 0.05);
}

TEST(Fm0, SoftDecodePhaseInvariant) {
  common::Rng rng(5);
  const bitvec bits = rng.random_bits(32);
  const bitvec chips = fm0_encode(bits);
  rvec soft(chips.size()), soft_flipped(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    soft[i] = chips[i] ? 1.0 : -1.0;
    soft_flipped[i] = -soft[i];
  }
  EXPECT_EQ(fm0_decode_soft(soft), bits);
  EXPECT_EQ(fm0_decode_soft(soft_flipped), bits);  // BPSK ambiguity tolerated
}

TEST(Fm0, SoftDecodeSurvivesScaling) {
  common::Rng rng(6);
  const bitvec bits = rng.random_bits(32);
  const bitvec chips = fm0_encode(bits);
  rvec soft(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i)
    soft[i] = (chips[i] ? 1.0 : -1.0) * 1e-6;
  EXPECT_EQ(fm0_decode_soft(soft), bits);
}

TEST(Fm0, PreambleIsBarker13) {
  const rvec lv = fm0_preamble_levels();
  ASSERT_EQ(lv.size(), 13u);
  // Barker autocorrelation: off-peak sidelobes at most 1 (in absolute sum).
  for (std::size_t lag = 1; lag < lv.size(); ++lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < lv.size(); ++i) acc += lv[i] * lv[i + lag];
    EXPECT_LE(std::abs(acc), 1.0 + 1e-9) << "lag " << lag;
  }
}

TEST(Pie, EncodeDecodeRoundTrip) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const bitvec bits = rng.random_bits(24);
    const rvec env = pie_encode_envelope(bits, 8000.0);
    const auto decoded = pie_decode_envelope(env, 8000.0);
    ASSERT_TRUE(decoded.has_value()) << trial;
    EXPECT_EQ(*decoded, bits) << trial;
  }
}

TEST(Pie, OnesTakeLongerThanZeros) {
  const rvec all0 = pie_encode_envelope(bitvec(16, 0), 8000.0);
  const rvec all1 = pie_encode_envelope(bitvec(16, 1), 8000.0);
  EXPECT_GT(all1.size(), all0.size());
}

TEST(Pie, SurvivesAmplitudeScalingAndNoise) {
  common::Rng rng(8);
  const bitvec bits = rng.random_bits(16);
  rvec env = pie_encode_envelope(bits, 8000.0);
  for (auto& v : env) v = 0.3 * v + 0.02 * std::abs(rng.gaussian());
  const auto decoded = pie_decode_envelope(env, 8000.0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bits);
}

TEST(Pie, NoDelimiterNoDecode) {
  EXPECT_FALSE(pie_decode_envelope(rvec(1000, 1.0), 8000.0).has_value());
  EXPECT_FALSE(pie_decode_envelope(rvec{}, 8000.0).has_value());
}

TEST(Sic, RemovesConstantCarrier) {
  SicConfig cfg;
  SelfInterferenceCanceller sic(cfg, 1000.0, 8000.0);
  cvec x(4000, cplx{100.0, 50.0});
  cvec y = x;
  sic.process_inplace(y);
  double residual = 0.0;
  for (std::size_t i = 1000; i < y.size(); ++i)
    residual = std::max(residual, std::abs(y[i]));
  EXPECT_LT(residual, 1e-6);
  EXPECT_GT(sic.last_suppression_db(), 60.0);
}

TEST(Sic, PreservesChipRateSignal) {
  SicConfig cfg;
  SelfInterferenceCanceller sic(cfg, 1000.0, 8000.0);
  // Carrier + alternating-chip signal at 500 Hz.
  cvec x(8000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double chip = ((i / 8) % 2) ? 1.0 : -1.0;
    x[i] = cplx{50.0, 0.0} + cplx{0.1 * chip, 0.0};
  }
  cvec y = x;
  sic.process_inplace(y);
  double sig = 0.0;
  for (std::size_t i = 2000; i < y.size(); ++i) sig += std::norm(y[i]);
  sig /= static_cast<double>(y.size() - 2000);
  EXPECT_NEAR(std::sqrt(sig), 0.1, 0.02);  // modulation survives
}

TEST(Sic, TracksSlowDrift) {
  SicConfig cfg;
  SelfInterferenceCanceller sic(cfg, 1000.0, 8000.0);
  cvec x(16000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Carrier amplitude drifting 1%/second at 8 kHz.
    const double a = 100.0 * (1.0 + 0.01 * static_cast<double>(i) / 8000.0);
    x[i] = cplx{a, 0.0};
  }
  cvec y = x;
  sic.process_inplace(y);
  double residual = 0.0;
  for (std::size_t i = 8000; i < y.size(); ++i)
    residual = std::max(residual, std::abs(y[i]));
  EXPECT_LT(residual, 0.2);  // drift absorbed by the tracker
}

TEST(Equalizer, RecoversKnownChannel) {
  common::Rng rng(9);
  // Known +/-1 training through a 3-tap channel.
  const cvec h{{1.0, 0.2}, {0.45, -0.3}, {-0.2, 0.1}};
  rvec known(64);
  for (auto& v : known) v = rng.coin() ? 1.0 : -1.0;
  cvec observed(known.size(), cplx{});
  const cplx baseline{0.05, -0.02};
  for (std::size_t c = 0; c < known.size(); ++c) {
    observed[c] = baseline;
    for (std::size_t k = 0; k < h.size(); ++k)
      if (c >= k) observed[c] += h[k] * known[c - k];
  }
  const auto est = estimate_channel_ls(observed, known, 3, 0);
  ASSERT_EQ(est.taps.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(std::abs(est.taps[k] - h[k]), 0.0, 1e-6) << k;
  EXPECT_NEAR(std::abs(est.baseline - baseline), 0.0, 1e-6);
  EXPECT_LT(est.fit_error, 1e-10);
}

TEST(Equalizer, ZfInverseFlattensChannel) {
  common::Rng rng(10);
  ChannelEstimate est;
  est.taps = {{1.0, 0.0}, {0.5, 0.2}};
  est.precursors = 0;
  std::size_t delay = 0;
  const cvec w = design_zf_equalizer(est, 9, delay);
  // Push known data through channel then equalizer; expect near-identity.
  rvec data(128);
  for (auto& v : data) v = rng.coin() ? 1.0 : -1.0;
  cvec through(data.size(), cplx{});
  for (std::size_t c = 0; c < data.size(); ++c)
    for (std::size_t k = 0; k < est.taps.size(); ++k)
      if (c >= k) through[c] += est.taps[k] * data[c - k];
  const cvec eq = equalize(through, w, delay);
  double err = 0.0;
  for (std::size_t c = 10; c + 10 < data.size(); ++c)
    err += std::norm(eq[c] - cplx{data[c], 0.0});
  EXPECT_LT(err / static_cast<double>(data.size() - 20), 0.01);
}

TEST(Equalizer, ValidatesInputs) {
  EXPECT_THROW(estimate_channel_ls(cvec(8), rvec(9), 2, 0), std::invalid_argument);
  EXPECT_THROW(estimate_channel_ls(cvec(8), rvec(8), 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace vab::phy
