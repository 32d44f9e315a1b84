// FFT correctness against a direct DFT; plans and the real-input FFT.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace vab::dsp {
namespace {

cvec direct_dft(const cvec& x) {
  const std::size_t n = x.size();
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{};
    for (std::size_t t = 0; t < n; ++t)
      acc += x[t] * std::exp(cplx{0.0, -common::kTwoPi * static_cast<double>(k * t) /
                                            static_cast<double>(n)});
    out[k] = acc;
  }
  return out;
}

TEST(Fft, Pow2Helpers) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(255));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Fft, MatchesDirectDft) {
  common::Rng rng(1);
  cvec x(64);
  for (auto& v : x) v = rng.complex_gaussian();
  const cvec ref = direct_dft(x);
  const cvec got = fft(x);
  for (std::size_t k = 0; k < x.size(); ++k)
    EXPECT_NEAR(std::abs(got[k] - ref[k]), 0.0, 1e-9) << "bin " << k;
}

TEST(Fft, InverseRoundTrip) {
  common::Rng rng(2);
  cvec x(256);
  for (auto& v : x) v = rng.complex_gaussian();
  cvec y = fft(x);
  fft_plan(y.size()).inverse(y.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(Fft, ParsevalHolds) {
  common::Rng rng(3);
  cvec x(512);
  for (auto& v : x) v = rng.complex_gaussian();
  double time_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  const cvec spec = fft(x);
  double freq_e = 0.0;
  for (const auto& v : spec) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e, 1e-6 * time_e);
}

TEST(Fft, ToneLandsInCorrectBin) {
  const std::size_t n = 1024;
  cvec x(n);
  const std::size_t bin = 37;
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::exp(cplx{0.0, common::kTwoPi * static_cast<double>(bin * t) /
                              static_cast<double>(n)});
  const cvec spec = fft(x);
  std::size_t best = 0;
  for (std::size_t k = 1; k < n; ++k)
    if (std::abs(spec[k]) > std::abs(spec[best])) best = k;
  EXPECT_EQ(best, bin);
  EXPECT_NEAR(std::abs(spec[bin]), static_cast<double>(n), 1e-6);
}

TEST(Fft, NonPow2InputIsZeroPadded) {
  cvec x(100, cplx{1.0, 0.0});
  const cvec spec = fft(x);
  EXPECT_EQ(spec.size(), 128u);
}

TEST(Fft, ThrowsOnNonPow2Inplace) {
  cvec x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(FftPlan, MatchesDirectDftAcrossSizes) {
  common::Rng rng(10);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{128}, std::size_t{512}}) {
    cvec x(n);
    for (auto& v : x) v = rng.complex_gaussian();
    const cvec ref = direct_dft(x);
    cvec got = x;
    fft_plan(n).forward(got.data());
    double ref_scale = 0.0;
    for (const auto& v : ref) ref_scale = std::max(ref_scale, std::abs(v));
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_LE(std::abs(got[k] - ref[k]), 1e-9 * std::max(ref_scale, 1.0))
          << "n=" << n << " bin " << k;
  }
}

TEST(FftPlan, DegenerateSizeOne) {
  // N=1 is the identity transform in both directions.
  cvec x{cplx{3.5, -1.25}};
  fft_plan(1).forward(x.data());
  EXPECT_EQ(x[0], (cplx{3.5, -1.25}));
  fft_plan(1).inverse(x.data());
  EXPECT_EQ(x[0], (cplx{3.5, -1.25}));
}

TEST(FftPlan, ThrowsOnNonPow2) {
  EXPECT_THROW(FftPlan(100), std::invalid_argument);
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(FftPlan, CachedPlanBitIdenticalToFreshPlan) {
  common::Rng rng(11);
  cvec x(256);
  for (auto& v : x) v = rng.complex_gaussian();
  // Repeated transforms through the thread-local cache and a freshly built
  // plan must agree bit-for-bit: the cache changes where the twiddles live,
  // never their values.
  cvec cached1 = x, cached2 = x, fresh = x;
  fft_plan(256).forward(cached1.data());
  fft_plan(256).forward(cached2.data());
  FftPlan(256).forward(fresh.data());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(cached1[k], cached2[k]) << "bin " << k;
    EXPECT_EQ(cached1[k], fresh[k]) << "bin " << k;
  }
}

TEST(FftPlan, InverseRoundTripInPlace) {
  common::Rng rng(12);
  cvec x(1024);
  for (auto& v : x) v = rng.complex_gaussian();
  cvec y = x;
  const FftPlan& plan = fft_plan(1024);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

}  // namespace
}  // namespace vab::dsp
