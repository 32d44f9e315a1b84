// Units, RNG, statistics, tables and config parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/config.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "support/common.hpp"

namespace vab::common {
namespace {

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(power_ratio_from_db(db_from_power_ratio(123.4)), 123.4, 1e-9);
  EXPECT_NEAR(amplitude_ratio_from_db(db_from_amplitude_ratio(0.07)), 0.07, 1e-12);
  EXPECT_DOUBLE_EQ(db_from_power_ratio(100.0), 20.0);
  EXPECT_DOUBLE_EQ(db_from_amplitude_ratio(10.0), 20.0);
}

TEST(Units, SplReference) {
  // 1 uPa rms is 0 dB re 1 uPa by definition.
  EXPECT_NEAR(spl_from_pressure(1e-6), 0.0, 1e-9);
  EXPECT_NEAR(pressure_from_spl(120.0), 1.0, 1e-9);  // 120 dB re 1 uPa = 1 Pa
}

TEST(Units, WavelengthAt18p5kHz) {
  EXPECT_NEAR(wavelength(18500.0, 1500.0), 0.0811, 1e-4);
  EXPECT_NEAR(wavenumber(18500.0, 1500.0) * wavelength(18500.0, 1500.0), kTwoPi, 1e-9);
}

TEST(Units, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_angle(-3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ChildStreamsDiffer) {
  Rng parent(7);
  Rng c0 = parent.child(0);
  Rng c1 = parent.child(1);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (c0.uniform() == c1.uniform()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ChildSeedsCollisionFree) {
  // The derivation contract (rng.hpp): child seeds are double-mixed, so a
  // large family of children, grandchildren and sibling-parent children
  // must all have pairwise-distinct seeds.
  std::set<std::uint64_t> seeds;
  std::size_t produced = 0;
  for (std::uint64_t p = 0; p < 8; ++p) {
    Rng parent(p);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const Rng c = parent.child(i);
      seeds.insert(c.seed());
      ++produced;
      for (std::uint64_t j = 0; j < 8; ++j) {
        seeds.insert(c.child(j).seed());
        ++produced;
      }
    }
  }
  EXPECT_EQ(seeds.size(), produced);
}

TEST(Rng, GrandchildStreamsDecorrelated) {
  // child(i).child(j) grid: take the first uniform draw from each
  // grandchild stream and chi-squared-test the pooled sample against
  // U(0,1). Structural correlation between derived streams (the old
  // lattice hazard) concentrates mass in a few bins and blows the
  // statistic up by orders of magnitude.
  constexpr int kI = 48, kJ = 48, kBins = 32;
  constexpr double kN = kI * kJ;
  Rng master(0x600dULL);
  int counts[kBins] = {};
  for (int i = 0; i < kI; ++i) {
    const Rng c = master.child(static_cast<std::uint64_t>(i));
    for (int j = 0; j < kJ; ++j) {
      Rng g = c.child(static_cast<std::uint64_t>(j));
      const double u = g.uniform();
      ASSERT_GE(u, 0.0);
      ASSERT_LT(u, 1.0);
      ++counts[static_cast<int>(u * kBins)];
    }
  }
  const double expected = kN / kBins;
  double chi2 = 0.0;
  for (int b = 0; b < kBins; ++b) {
    const double d = counts[b] - expected;
    chi2 += d * d / expected;
  }
  // 31 degrees of freedom: mean 31, stddev ~7.9. 99.9th percentile ~= 61;
  // allow a generous margin so the test only fires on structural defects.
  EXPECT_LT(chi2, 70.0);
}

TEST(Rng, ChildIsPureAndDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.child(0);
  (void)a.child(1);
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  // Same stream index always derives the same child.
  Rng c1 = a.child(5), c2 = a.child(5);
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  EXPECT_NEAR(m, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum2 / n - m * m), 1.0, 0.03);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(4);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_gaussian(2.0));
  EXPECT_NEAR(acc / n, 2.0, 0.1);
}

TEST(Stats, PercentileAndMedian) {
  rvec v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Stats, WilsonWidthShrinksWithTrials) {
  EXPECT_GT(wilson_half_width(5, 100), wilson_half_width(50, 1000));
  EXPECT_LT(wilson_half_width(0, 1000000), 1e-4);
}

TEST(Stats, SpacingHelpers) {
  const rvec lin = linspace(0.0, 10.0, 11);
  EXPECT_EQ(lin.size(), 11u);
  EXPECT_DOUBLE_EQ(lin[3], 3.0);
}

TEST(Table, AlignmentAndCsv) {
  Table t({"range_m", "ber"});
  t.add_row({"100", Table::sci(1.5e-3)});
  t.add_row({"300", Table::sci(9.9e-4)});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("range_m,ber"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Config, ParsesArgsAndTypes) {
  const char* argv[] = {"prog", "range_m=150", "verbose=true", "name=test"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_DOUBLE_EQ(cfg.get_double("range_m", 0.0), 150.0);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_EQ(cfg.get_string("name", ""), "test");
  EXPECT_EQ(cfg.get_count("missing", 42), 42u);
}

TEST(Config, RejectsMalformed) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
  const char* argv2[] = {"prog", "a=notanumber", "b=2"};
  const Config c = Config::from_args(3, argv2);
  EXPECT_EQ(c.get_count("b", 0), 2u);
  EXPECT_THROW(c.get_double("a", 0.0), std::invalid_argument);
}

TEST(Linalg, SolvesKnownSystem) {
  CMatrix a(2, 2);
  a.at(0, 0) = {2, 0};
  a.at(0, 1) = {1, 0};
  a.at(1, 0) = {1, 0};
  a.at(1, 1) = {3, 0};
  const cvec x = solve_linear(a, {{5, 0}, {10, 0}});
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[1].real(), 3.0, 1e-12);
}

TEST(Linalg, ComplexLeastSquaresRecoversCoefficients) {
  // y = (1+2i) x0 + (3-1i) x1, overdetermined.
  Rng rng(9);
  CMatrix a(20, 2);
  cvec b(20);
  const cplx c0{1, 2}, c1{3, -1};
  for (std::size_t r = 0; r < 20; ++r) {
    a.at(r, 0) = rng.complex_gaussian();
    a.at(r, 1) = rng.complex_gaussian();
    b[r] = c0 * a.at(r, 0) + c1 * a.at(r, 1);
  }
  const cvec x = solve_least_squares(a, b);
  EXPECT_NEAR(std::abs(x[0] - c0), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(x[1] - c1), 0.0, 1e-9);
}

TEST(Linalg, SingularThrows) {
  CMatrix a(2, 2);
  a.at(0, 0) = {1, 0};
  a.at(0, 1) = {2, 0};
  a.at(1, 0) = {2, 0};
  a.at(1, 1) = {4, 0};
  EXPECT_THROW(solve_linear(a, {{1, 0}, {2, 0}}), std::runtime_error);
}

}  // namespace
}  // namespace vab::common
