// FIR/IIR design and filtering, windows, resampling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/iir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "dsp/window.hpp"

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

TEST(Fir, StreamingMatchesBatchAndResets) {
  common::Rng rng(1);
  const rvec h = design_lowpass(4000.0, 48000.0, 31);
  FirFilter f1(h), f2(h);
  rvec x(200);
  for (auto& v : x) v = rng.gaussian();
  const rvec batch = f1.process(x);
  // Chunked processing must match.
  rvec chunked;
  for (std::size_t i = 0; i < x.size(); i += 17) {
    const rvec part(x.begin() + static_cast<std::ptrdiff_t>(i),
                    x.begin() + static_cast<std::ptrdiff_t>(std::min(i + 17, x.size())));
    const rvec y = f2.process(part);
    chunked.insert(chunked.end(), y.begin(), y.end());
  }
  ASSERT_EQ(batch.size(), chunked.size());
  for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_NEAR(batch[i], chunked[i], 1e-12);
  f2.reset();
  EXPECT_NEAR(f2.process(1.0), h[0], 1e-12);
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

TEST(Resample, DecimateKeepsLowFrequency) {
  const double fs = 96000.0;
  const rvec x = make_tone(500.0, fs, 9600);
  const rvec y = decimate(x, 8);
  ASSERT_NEAR(static_cast<double>(y.size()), 1200.0, 2.0);
  // Tone RMS preserved (0.707 for unit sine), ignoring filter edges.
  double e = 0.0;
  for (std::size_t i = 200; i < y.size(); ++i) e += y[i] * y[i];
  EXPECT_NEAR(std::sqrt(e / static_cast<double>(y.size() - 200)), 0.707, 0.03);
}

TEST(Resample, LinearRatioAndValues) {
  rvec x{0.0, 1.0, 2.0, 3.0, 4.0};
  const rvec y = resample_linear(x, 1.0, 2.0);
  ASSERT_GE(y.size(), 8u);
  EXPECT_NEAR(y[1], 0.5, 1e-12);
  EXPECT_NEAR(y[4], 2.0, 1e-12);
}

TEST(Resample, SampleAtClampsEnds) {
  rvec x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sample_at(x, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(sample_at(x, 10.0), 3.0);
  EXPECT_NEAR(sample_at(x, 0.5), 1.5, 1e-12);
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
  const rvec pass = upconvert(bbin, 18500.0, fs);
  cvec bbout = downconvert(pass, 18500.0, fs);
  FirFilter lp(design_lowpass(3000.0, fs, 127));
  bbout = lp.process(bbout);
  // Downconversion halves the amplitude (image removed by LPF).
  for (std::size_t i = 500; i < 3500; i += 100)
    EXPECT_NEAR(std::abs(2.0 * bbout[i] - bbin[i - 63]), 0.0, 0.05);
}

}  // namespace
}  // namespace vab::dsp
