// Planar Van Atta array: retrodirectivity in both axes, pairing ablation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "vanatta/planar.hpp"

namespace vab::vanatta {
namespace {

PlanarVanAttaConfig ideal(std::size_t rows, std::size_t cols) {
  PlanarVanAttaConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.element_efficiency = 1.0;
  cfg.line_loss_db = 0.0;
  cfg.switch_insertion_db = 0.0;
  cfg.directivity_q = 0.0;
  return cfg;
}

Direction dir(double az_deg, double el_deg) {
  return {common::deg_to_rad(az_deg), common::deg_to_rad(el_deg)};
}

TEST(Planar, PointReflectionPairing) {
  const PlanarVanAttaArray a(ideal(3, 4));
  // (0,0) <-> (2,3): index 0 <-> 11.
  EXPECT_EQ(a.partner(0), 11u);
  EXPECT_EQ(a.partner(11), 0u);
  // Center-symmetric pair in the middle row.
  EXPECT_EQ(a.partner(5), 6u);
}

TEST(Planar, NSquaredGainAtBroadside) {
  for (auto [r, c] : {std::pair{2u, 2u}, std::pair{4u, 4u}, std::pair{2u, 8u}}) {
    const PlanarVanAttaArray a(ideal(r, c));
    EXPECT_NEAR(a.monostatic_gain_db(dir(0, 0), 18500.0),
                20.0 * std::log10(static_cast<double>(r * c)), 1e-6)
        << r << "x" << c;
  }
}

TEST(Planar, RetroInBothAxes) {
  const PlanarVanAttaArray a(ideal(4, 4));
  const double broadside = a.monostatic_gain_db(dir(0, 0), 18500.0);
  for (double az : {-45.0, 0.0, 30.0}) {
    for (double el : {-40.0, 0.0, 25.0}) {
      EXPECT_NEAR(a.monostatic_gain_db(dir(az, el), 18500.0), broadside, 1e-6)
          << az << "," << el;
    }
  }
}

TEST(Planar, RowPairingLosesElevationRetro) {
  PlanarVanAttaConfig cfg = ideal(4, 4);
  cfg.point_reflection_pairing = false;
  const PlanarVanAttaArray a(cfg);
  const double broadside = a.monostatic_gain_db(dir(0, 0), 18500.0);
  // Azimuth-only retro survives...
  EXPECT_NEAR(a.monostatic_gain_db(dir(35, 0), 18500.0), broadside, 1e-6);
  // ...but elevation collapses (rows are not phase-conjugated).
  EXPECT_LT(a.monostatic_gain_db(dir(0, 35), 18500.0), broadside - 10.0);
}

TEST(Planar, SingleRowMatchesLinearArray) {
  // A 1 x N planar array in azimuth equals the linear array's retro gain.
  const PlanarVanAttaArray planar(ideal(1, 8));
  VanAttaConfig lin;
  lin.n_elements = 8;
  lin.element_efficiency = 1.0;
  lin.line_loss_db = 0.0;
  lin.switch_insertion_db = 0.0;
  lin.directivity_q = 0.0;
  const VanAttaArray linear(lin);
  for (double deg : {-30.0, 0.0, 45.0}) {
    EXPECT_NEAR(planar.monostatic_gain_db(dir(deg, 0), 18500.0),
                linear.monostatic_gain_db(common::deg_to_rad(deg), 18500.0), 1e-6)
        << deg;
  }
}

TEST(Planar, ReciprocityHolds) {
  const PlanarVanAttaArray a(ideal(3, 3));
  const Direction d1 = dir(20, -15), d2 = dir(-35, 10);
  const cplx r12 = a.bistatic_response(d1, d2, 18500.0, 1);
  const cplx r21 = a.bistatic_response(d2, d1, 18500.0, 1);
  EXPECT_NEAR(std::abs(r12 - r21), 0.0, 1e-9);
}

TEST(Planar, PolarityModulationAmplitude) {
  const PlanarVanAttaArray a(ideal(4, 4));
  // Half the swing between the two switch states, toward the interrogator.
  const Direction d = dir(25, 15);
  const cplx r1 = a.bistatic_response(d, d, 18500.0, 1);
  const cplx r0 = a.bistatic_response(d, d, 18500.0, 0);
  EXPECT_NEAR(std::abs(r1 - r0) / 2.0, 16.0, 1e-9);
}

TEST(Planar, EndfireSuppressedByPattern) {
  PlanarVanAttaConfig cfg = ideal(4, 4);
  cfg.directivity_q = 0.5;
  const PlanarVanAttaArray a(cfg);
  const double broadside = a.monostatic_gain_db(dir(0, 0), 18500.0);
  // Near endfire the cos^q element pattern (applied on receive and
  // re-transmit) dominates: tens of dB below broadside.
  EXPECT_LT(a.monostatic_gain_db(dir(89.9, 0), 18500.0), broadside - 40.0);
  // Exactly at endfire the pattern nulls completely.
  EXPECT_LT(a.monostatic_gain_db(dir(90.0, 0), 18500.0), -250.0);
}

TEST(Planar, Validation) {
  PlanarVanAttaConfig bad = ideal(0, 4);
  EXPECT_THROW(PlanarVanAttaArray{bad}, std::invalid_argument);
  const PlanarVanAttaArray a(ideal(2, 2));
  EXPECT_THROW(a.bistatic_response(dir(0, 0), dir(0, 0), -1.0, 1), std::invalid_argument);
  EXPECT_THROW(a.partner(99), std::out_of_range);
}

}  // namespace
}  // namespace vab::vanatta
