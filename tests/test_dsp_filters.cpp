// FIR/IIR design and filtering, windows, fractional-delay interpolation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/iir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "dsp/window.hpp"
#include "support/dsp.hpp"

namespace vab::dsp {
namespace {

TEST(Window, BasicProperties) {
  for (auto type : {WindowType::kHann, WindowType::kHamming, WindowType::kBlackman,
                    WindowType::kKaiser}) {
    const rvec w = make_window(type, 65);
    ASSERT_EQ(w.size(), 65u);
    // Symmetric and peaked at the center.
    for (std::size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    EXPECT_NEAR(w[32], type == WindowType::kHamming ? 1.0 : 1.0, 1e-9);
  }
}

TEST(Window, BesselI0KnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-12);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658, 1e-6);
  EXPECT_NEAR(bessel_i0(5.0), 27.239872, 1e-4);
}

TEST(Fir, LowpassPassesAndStops) {
  const double fs = 96000.0;
  const rvec h = design_lowpass(2000.0, fs, 127);
  EXPECT_NEAR(fir_response_at(h, 100.0, fs), 1.0, 0.01);
  EXPECT_NEAR(fir_response_at(h, 1000.0, fs), 1.0, 0.05);
  EXPECT_LT(fir_response_at(h, 8000.0, fs), 0.01);
}

TEST(Fir, KaiserDeepStopband) {
  const double fs = 96000.0;
  const rvec h = design_lowpass(2500.0, fs, 255, WindowType::kKaiser, 12.0);
  // The -2fc image at 37 kHz must be crushed (see the modem design note).
  EXPECT_LT(fir_response_at(h, 37000.0, fs), 3e-5);
}

TEST(Fir, StreamingMatchesBatch) {
  common::Rng rng(1);
  const rvec h = design_lowpass(4000.0, 48000.0, 31);
  FirFilter f1(h), f2(h);
  cvec x(200);
  for (auto& v : x) v = rng.complex_gaussian();
  const cvec batch = f1.process(x);
  // Chunked processing must match.
  cvec chunked;
  for (std::size_t i = 0; i < x.size(); i += 17) {
    const cvec part(x.begin() + static_cast<std::ptrdiff_t>(i),
                    x.begin() + static_cast<std::ptrdiff_t>(std::min(i + 17, x.size())));
    const cvec y = f2.process(part);
    chunked.insert(chunked.end(), y.begin(), y.end());
  }
  ASSERT_EQ(batch.size(), chunked.size());
  for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i], chunked[i]);
  // A fresh filter starts from zero history: an impulse reads out the taps.
  FirFilter f3(h);
  EXPECT_EQ(f3.process(cplx{1.0, 0.0}), cplx(h[0], 0.0));
}

TEST(Fir, DecimateEqualsEveryMthStreamingOutput) {
  // Lengths and offsets that cover the clipped ramp-up windows, the
  // four-output blocks and the remainder after them.
  common::Rng rng(3);
  for (const std::size_t n : {1, 2, 7, 100, 257, 1000}) {
    cvec x(n);
    for (auto& v : x) v = rng.complex_gaussian();
    for (const std::size_t n_taps : {1, 5, 255}) {
      rvec taps(n_taps);
      for (auto& t : taps) t = rng.gaussian();
      FirFilter fir(taps);
      const cvec full = fir.process(x);
      for (const std::size_t m : {1, 3, 24}) {
        for (const std::size_t offset : {0, 1, 300}) {
          cvec out;
          fir_filter_decimate(taps, x, m, offset, out);
          cvec want;
          for (std::size_t i = offset; i < n; i += m) want.push_back(full[i]);
          ASSERT_EQ(out.size(), want.size());
          const std::size_t bytes = out.size() * sizeof(cplx);
          EXPECT_TRUE(out.empty() || std::memcmp(out.data(), want.data(), bytes) == 0)
              << "n=" << n << " taps=" << n_taps << " m=" << m << " offset=" << offset;
        }
      }
    }
  }
}

TEST(Fir, InvalidDesignThrows) {
  EXPECT_THROW(design_lowpass(0.0, 48000.0, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(30000.0, 48000.0, 31), std::invalid_argument);
  EXPECT_THROW(design_lowpass(1000.0, 0.0, 31), std::invalid_argument);
  EXPECT_THROW(FirFilter(rvec{}), std::invalid_argument);
}

TEST(OnePole, StepResponseTimeConstant) {
  const double fs = 1000.0;
  OnePole lp(10.0, fs);
  // After one time constant (fs / (2 pi fc) samples) the step reaches ~63%.
  const int tau = static_cast<int>(fs / (common::kTwoPi * 10.0));
  double y = 0.0;
  for (int i = 0; i < tau; ++i) y = lp.process(1.0);
  EXPECT_NEAR(y, 0.63, 0.05);
}

TEST(Resample, SampleAtClampsEnds) {
  const cvec x{{1.0, -1.0}, {2.0, -2.0}, {3.0, -3.0}};
  EXPECT_EQ(sample_at(x, -1.0), x.front());
  EXPECT_EQ(sample_at(x, 10.0), x.back());
  EXPECT_NEAR(std::abs(sample_at(x, 0.5) - cplx(1.5, -1.5)), 0.0, 1e-12);
}

TEST(Nco, PhaseContinuityAcrossChunks) {
  Nco a(18500.0, 96000.0);
  rvec whole(100);
  for (auto& v : whole) v = a.next_cos();
  Nco b(18500.0, 96000.0);
  for (int i = 0; i < 50; ++i) b.next_cos();
  for (int i = 50; i < 100; ++i)
    EXPECT_NEAR(b.next_cos(), whole[static_cast<std::size_t>(i)], 1e-12);
}

TEST(Mixer, UpDownRoundTripRecoversBaseband) {
  const double fs = 96000.0;
  common::Rng rng(2);
  // Slow complex baseband.
  cvec bbin(4000);
  for (std::size_t i = 0; i < bbin.size(); ++i)
    bbin[i] = cplx{std::cos(0.002 * static_cast<double>(i)), 0.3};
  // Passband Re{x[n] e^{+j 2 pi f n / fs}}, the mixer's upconversion.
  rvec pass(bbin.size());
  for (std::size_t i = 0; i < bbin.size(); ++i)
    pass[i] = (bbin[i] * std::polar(1.0, common::kTwoPi * 18500.0 *
                                             static_cast<double>(i) / fs)).real();
  cvec bbout = downconvert(pass, 18500.0, fs);
  FirFilter lp(design_lowpass(3000.0, fs, 127));
  bbout = lp.process(bbout);
  // Downconversion halves the amplitude (image removed by LPF).
  for (std::size_t i = 500; i < 3500; i += 100)
    EXPECT_NEAR(std::abs(2.0 * bbout[i] - bbin[i - 63]), 0.0, 0.05);
}

}  // namespace
}  // namespace vab::dsp
