// Van Atta retrodirectivity: the paper's core physics claims as invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "vanatta/array.hpp"
#include "vanatta/mismatch.hpp"
#include "vanatta/pattern.hpp"

namespace vab::vanatta {
namespace {

VanAttaConfig ideal_config(std::size_t n, ArrayMode mode = ArrayMode::kVanAtta) {
  VanAttaConfig cfg;
  cfg.n_elements = n;
  cfg.mode = mode;
  cfg.element_efficiency = 1.0;
  cfg.line_loss_db = 0.0;
  cfg.switch_insertion_db = 0.0;
  cfg.directivity_q = 0.0;  // isotropic elements for the pure array factor
  cfg.scheme = ModulationScheme::kPolarity;
  return cfg;
}

TEST(VanAtta, MirroredPairing) {
  const VanAttaArray a(ideal_config(6));
  EXPECT_EQ(a.partner(0), 5u);
  EXPECT_EQ(a.partner(2), 3u);
  EXPECT_EQ(a.partner(5), 0u);
  const VanAttaArray f(ideal_config(6, ArrayMode::kFixedPhase));
  EXPECT_EQ(f.partner(2), 2u);
}

TEST(VanAtta, PositionsSymmetricHalfWavelength) {
  const VanAttaArray a(ideal_config(4));
  const auto& p = a.positions();
  const double lambda = 1500.0 / 18500.0;
  EXPECT_NEAR(p[1] - p[0], lambda / 2.0, 1e-9);
  EXPECT_NEAR(p[0] + p[3], 0.0, 1e-12);
}

TEST(VanAtta, MonostaticGainIsNSquaredAtBroadside) {
  for (std::size_t n : {2u, 4u, 8u}) {
    const VanAttaArray a(ideal_config(n));
    const double gain_db = a.monostatic_gain_db(0.0, 18500.0);
    EXPECT_NEAR(gain_db, 20.0 * std::log10(static_cast<double>(n)), 1e-6) << n;
  }
}

TEST(VanAtta, RetrodirectiveAtAnyAngle) {
  // The defining property: full coherent gain toward the source for every
  // incidence angle, without any phase estimation.
  const VanAttaArray a(ideal_config(8));
  const double broadside = a.monostatic_gain_db(0.0, 18500.0);
  for (double deg : {-50.0, -30.0, -10.0, 15.0, 40.0, 55.0}) {
    EXPECT_NEAR(a.monostatic_gain_db(common::deg_to_rad(deg), 18500.0), broadside, 1e-6)
        << deg;
  }
}

TEST(VanAtta, FixedPhaseArrayCollapsesOffBroadside) {
  const VanAttaArray f(ideal_config(8, ArrayMode::kFixedPhase));
  const double broadside = f.monostatic_gain_db(0.0, 18500.0);
  const double off = f.monostatic_gain_db(common::deg_to_rad(30.0), 18500.0);
  EXPECT_NEAR(broadside, 20.0 * std::log10(8.0), 1e-6);
  EXPECT_LT(off, broadside - 10.0);
}

TEST(VanAtta, BistaticPeakAtMirrorForFixedArray) {
  // A fixed-phase reflect-array beams at the specular direction, not back.
  const VanAttaArray f(ideal_config(8, ArrayMode::kFixedPhase));
  const double theta_in = common::deg_to_rad(25.0);
  const rvec thetas = common::linspace(-common::kPi / 2.2, common::kPi / 2.2, 721);
  double best_theta = 0.0, best = -1.0;
  for (const double th : thetas) {
    const double p = std::norm(f.bistatic_response(theta_in, th, 18500.0, 1));
    if (p > best) {
      best = p;
      best_theta = th;
    }
  }
  EXPECT_NEAR(best_theta, -theta_in, common::deg_to_rad(2.0));
}

TEST(VanAtta, ReciprocityOfBistaticResponse) {
  const VanAttaArray a(ideal_config(6));
  for (double t1 : {0.2, -0.5}) {
    for (double t2 : {0.1, 0.6}) {
      const cplx r12 = a.bistatic_response(t1, t2, 18500.0, 1);
      const cplx r21 = a.bistatic_response(t2, t1, 18500.0, 1);
      EXPECT_NEAR(std::abs(r12 - r21), 0.0, 1e-9);
    }
  }
}

TEST(VanAtta, LossesReduceGain) {
  VanAttaConfig lossy = ideal_config(4);
  lossy.element_efficiency = 0.75;
  lossy.line_loss_db = 0.5;
  lossy.switch_insertion_db = 0.3;
  const VanAttaArray clean(ideal_config(4));
  const VanAttaArray dirty(lossy);
  const double expected_loss =
      -2.0 * 20.0 * std::log10(0.75) + 0.5 + 0.3;  // eta twice (amplitude)
  EXPECT_NEAR(clean.monostatic_gain_db(0.0, 18500.0) -
                  dirty.monostatic_gain_db(0.0, 18500.0),
              expected_loss, 1e-6);
}

TEST(VanAtta, PolarityDoublesModulationAmplitudeOverOnOff) {
  VanAttaConfig pol = ideal_config(4);
  VanAttaConfig ook = ideal_config(4);
  ook.scheme = ModulationScheme::kOnOff;
  const VanAttaArray a_pol(pol), a_ook(ook);
  EXPECT_NEAR(a_pol.modulation_amplitude(0.0, 18500.0) /
                  a_ook.modulation_amplitude(0.0, 18500.0),
              2.0, 1e-9);
}

TEST(VanAtta, DirectivityNarrowsFieldOfView) {
  VanAttaConfig iso = ideal_config(8);
  VanAttaConfig dir = ideal_config(8);
  dir.directivity_q = 2.0;
  const VanAttaArray a_iso(iso), a_dir(dir);
  EXPECT_GT(retro_fov_deg(a_iso, 18500.0), retro_fov_deg(a_dir, 18500.0));
}

TEST(VanAtta, SingleElementMode) {
  VanAttaConfig cfg = ideal_config(8, ArrayMode::kSingleElement);
  const VanAttaArray a(cfg);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_NEAR(a.monostatic_gain_db(0.0, 18500.0), 0.0, 1e-9);
}

TEST(VanAtta, PhaseErrorsDegradeGain) {
  VanAttaArray a(ideal_config(8));
  const double clean = a.monostatic_gain_db(0.3, 18500.0);
  // Errors that differ *within* pairs break the coherence.
  a.set_phase_errors({0.0, 1.2, 0.0, 1.2, 1.2, 0.0, 0.0, 0.0});
  EXPECT_LT(a.monostatic_gain_db(0.3, 18500.0), clean - 1.0);
}

TEST(VanAtta, PairAntisymmetricErrorsCancelStructurally) {
  // A Van Atta pair applies err_i + err_partner(i); errors that are equal
  // and opposite across a mirrored pair therefore cost nothing — one of the
  // architecture's built-in robustness properties.
  VanAttaArray a(ideal_config(8));
  const double clean = a.monostatic_gain_db(0.3, 18500.0);
  std::vector<double> errs(8);
  for (std::size_t i = 0; i < 8; ++i) errs[i] = (i < 4) ? 1.2 : 0.0;
  // partner(i) = 7 - i: pair sums are all 1.2 -> common phase, no loss.
  a.set_phase_errors(errs);
  EXPECT_NEAR(a.monostatic_gain_db(0.3, 18500.0), clean, 1e-9);
}

TEST(VanAtta, OddElementCountSelfPairsMiddle) {
  const VanAttaArray a(ideal_config(5));
  EXPECT_EQ(a.partner(2), 2u);
  // Still retro: middle element sits at the array center (zero phase).
  const double g0 = a.monostatic_gain_db(0.0, 18500.0);
  const double g30 = a.monostatic_gain_db(common::deg_to_rad(30.0), 18500.0);
  EXPECT_NEAR(g0, g30, 1e-6);
}

TEST(VanAtta, FrequencyOffsetKeepsRetroButChangesPattern) {
  // Retrodirectivity is broadband for equal line lengths: monostatic gain
  // stays N^2 even off the design frequency.
  const VanAttaArray a(ideal_config(4));
  EXPECT_NEAR(a.monostatic_gain_db(0.4, 17000.0), 20.0 * std::log10(4.0), 1e-6);
}

TEST(Mismatch, GainLossGrowsWithPhaseSigma) {
  common::Rng rng(7);
  const VanAttaConfig cfg = ideal_config(8);
  const auto small = mismatch_monte_carlo(cfg, 0.0, 18500.0, 0.1, 0.0, 200, rng);
  const auto large = mismatch_monte_carlo(cfg, 0.0, 18500.0, 0.8, 0.0, 200, rng);
  EXPECT_LT(small.mean_loss_db, large.mean_loss_db);
  EXPECT_LT(small.mean_loss_db, 0.5);
  EXPECT_GT(large.mean_loss_db, 1.0);
  EXPECT_GE(large.p95_loss_db, large.mean_loss_db);
}

TEST(Mismatch, GainErrorsAloneMild) {
  common::Rng rng(8);
  const auto r = mismatch_monte_carlo(ideal_config(8), 0.0, 18500.0, 0.0, 1.0, 200, rng);
  EXPECT_LT(r.mean_loss_db, 1.0);
}

TEST(Pattern, FovWideForVanAttaNarrowForFixed) {
  VanAttaConfig va = ideal_config(8);
  va.directivity_q = 0.5;
  VanAttaConfig fx = va;
  fx.mode = ArrayMode::kFixedPhase;
  EXPECT_GT(retro_fov_deg(VanAttaArray(va), 18500.0), 80.0);
  EXPECT_LT(retro_fov_deg(VanAttaArray(fx), 18500.0), 20.0);
}

TEST(VanAtta, ConfigValidation) {
  VanAttaConfig bad = ideal_config(4);
  bad.element_efficiency = 1.5;
  EXPECT_THROW(VanAttaArray{bad}, std::invalid_argument);
  VanAttaConfig zero = ideal_config(4);
  zero.n_elements = 0;
  EXPECT_THROW(VanAttaArray{zero}, std::invalid_argument);
  const VanAttaArray a(ideal_config(4));
  EXPECT_THROW(a.bistatic_response(0.0, 0.0, -5.0, 1), std::invalid_argument);
  EXPECT_THROW(a.bistatic_response(0.0, 0.0, 18500.0, 7), std::invalid_argument);
}

}  // namespace
}  // namespace vab::vanatta
