// Scenario presets, analytic link budget and the Monte-Carlo engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "channel/absorption.hpp"
#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/linkbudget.hpp"
#include "sim/montecarlo.hpp"
#include "phy/ber.hpp"
#include "sim/scenario.hpp"
#include "support/sim.hpp"

namespace vab::sim {
namespace {

TEST(Scenario, PresetsAreConsistent) {
  const Scenario river = vab_river_scenario();
  EXPECT_EQ(river.env.name, "river");
  EXPECT_LT(river.env.water.salinity_ppt, 5.0);
  EXPECT_EQ(river.node.array.mode, vanatta::ArrayMode::kVanAtta);
  const Scenario ocean = vab_ocean_scenario();
  EXPECT_EQ(ocean.env.name, "ocean");
  EXPECT_GT(ocean.env.water.salinity_ppt, 30.0);
  const Scenario pab = pab_river_scenario();
  EXPECT_EQ(pab.node.array.mode, vanatta::ArrayMode::kSingleElement);
  EXPECT_LT(pab.node.array.element_efficiency, river.node.array.element_efficiency);
}

TEST(LinkBudget, SnrDecreasesWithRange) {
  const LinkBudget lb(vab_river_scenario());
  double prev = 1e9;
  for (double r : {10.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    const double snr = lb.evaluate(common::Meters{r}).snr_chip_db.raw();
    EXPECT_LT(snr, prev) << r;
    prev = snr;
  }
}

TEST(LinkBudget, BerMonotoneInSnr) {
  const LinkBudget lb(vab_river_scenario());
  const auto near = lb.evaluate(common::Meters{50.0});
  const auto far = lb.evaluate(common::Meters{500.0});
  EXPECT_LT(near.ber, far.ber);
  EXPECT_GE(near.ber, 0.0);
  EXPECT_LE(far.ber, 0.5 + 1e-12);
}

TEST(LinkBudget, RoundTripUsesTransmissionLossTwice) {
  const LinkBudget lb(vab_river_scenario());
  const auto r = lb.evaluate(common::Meters{100.0});
  EXPECT_NEAR(r.received_at_node_db.raw(),
              lb.scenario().reader.source_level_db - r.tl_one_way_db.raw(), 1e-9);
  // Return leg: received at node + target strength - TL again.
  EXPECT_LT(r.modulated_return_db.raw(),
            r.received_at_node_db.raw() - r.tl_one_way_db.raw());
}

TEST(LinkBudget, FadingShiftsSnrDirectly) {
  const LinkBudget lb(vab_river_scenario());
  EXPECT_NEAR(lb.evaluate(common::Meters{100.0}, common::Db{6.0}).snr_chip_db.raw(),
              lb.evaluate(common::Meters{100.0}, common::Db{0.0}).snr_chip_db.raw() + 6.0,
              1e-9);
}

TEST(LinkBudget, VabHeadlineRange) {
  // The paper's headline: >300 m round trip at BER 1e-3 (deterministic,
  // no-fading evaluation).
  const LinkBudget lb(vab_river_scenario());
  EXPECT_LT(lb.evaluate(common::Meters{300.0}).ber, 1e-3);
}

TEST(LinkBudget, PabBaselineShortRange) {
  const LinkBudget lb(pab_river_scenario());
  EXPECT_LT(lb.evaluate(common::Meters{10.0}).ber, 1e-3);
  EXPECT_GT(lb.evaluate(common::Meters{100.0}).ber, 1e-2);
}

TEST(LinkBudget, FifteenXClassRangeGain) {
  common::Rng rng(1);
  const LinkBudget vab(vab_river_scenario());
  const LinkBudget pab(pab_river_scenario());
  common::Rng r1 = rng.child(1), r2 = rng.child(2);
  const double vab_range = vab.max_range(1e-3, 100, r1).raw();
  const double pab_range = pab.max_range(1e-3, 100, r2).raw();
  const double ratio = vab_range / pab_range;
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 30.0);
  EXPECT_GT(vab_range, 250.0);
}

TEST(LinkBudget, OrientationBarelyMattersForVanAtta) {
  Scenario s = vab_river_scenario();
  const double on_axis = LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  s.node.orientation_rad = common::deg_to_rad(40.0);
  const double off_axis = LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  // Only element directivity costs anything; the array factor is retro.
  EXPECT_LT(on_axis - off_axis, 4.0);
}

TEST(LinkBudget, OrientationKillsFixedArray) {
  Scenario s = vab_river_scenario();
  s.node.array.mode = vanatta::ArrayMode::kFixedPhase;
  const double on_axis = LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  s.node.orientation_rad = common::deg_to_rad(40.0);
  const double off_axis = LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  EXPECT_GT(on_axis - off_axis, 10.0);
}

TEST(LinkBudget, MoreElementsMoreRange) {
  common::Rng rng(2);
  double prev = 0.0;
  for (std::size_t n : {2u, 4u, 8u}) {
    Scenario s = vab_river_scenario();
    s.node.array.n_elements = n;
    common::Rng local = rng.child(n);
    const double range = LinkBudget(s).max_range(1e-3, 100, local).raw();
    EXPECT_GT(range, prev) << n;
    prev = range;
  }
}

TEST(LinkBudget, MonteCarloBerMatchesAnalyticWithoutFading) {
  Scenario s = vab_river_scenario();
  s.env.fading_sigma_db = 0.0;
  const LinkBudget lb(s);
  common::Rng rng(3);
  // Pick a range where BER is around 1e-2 for countable errors.
  double r_test = 300.0;
  while (lb.evaluate(common::Meters{r_test}).ber < 5e-3) r_test += 20.0;
  const auto stats = lb.monte_carlo(common::Meters{r_test}, 200, 1024, rng);
  const double expected = lb.evaluate(common::Meters{r_test}).ber;
  EXPECT_NEAR(stats.ber(), expected, 0.3 * expected + 1e-4);
}

TEST(LinkBudget, FadingRaisesAverageBerNearThreshold) {
  // Lognormal fading is convex in dB -> raises the mean BER at the edge.
  Scenario s = vab_river_scenario();
  const LinkBudget lb(s);
  double r_edge = 200.0;
  while (lb.evaluate(common::Meters{r_edge}).ber < 1e-5) r_edge += 20.0;
  common::Rng rng(4);
  const auto faded = lb.monte_carlo(common::Meters{r_edge}, 400, 2048, rng);
  EXPECT_GT(faded.ber(), lb.evaluate(common::Meters{r_edge}).ber);
}

TEST(MonteCarlo, SweepShapesAndDeterminism) {
  const Scenario s = vab_river_scenario();
  common::Rng rng(5);
  const rvec ranges = common::linspace(50.0, 350.0, 4);
  const auto sweep1 = ber_vs_range_sweep(s, ranges, 50, 256, rng);
  const auto sweep2 = ber_vs_range_sweep(s, ranges, 50, 256, rng);
  ASSERT_EQ(sweep1.size(), 4u);
  for (std::size_t i = 0; i < sweep1.size(); ++i) {
    EXPECT_EQ(sweep1[i].errors, sweep2[i].errors);  // child-seeded determinism
    EXPECT_EQ(sweep1[i].bits, 50u * 256u);
  }
  // SNR decreases along the sweep.
  EXPECT_GT(sweep1.front().snr_db, sweep1.back().snr_db);
}

TEST(LinkBudget, CarrierSplForHarvesting) {
  const LinkBudget lb(vab_river_scenario());
  // Within tens of meters the carrier is strong enough to be worth
  // harvesting (>140 dB re 1 uPa).
  EXPECT_GT(lb.carrier_spl_at_node(common::Meters{20.0}).raw(), 140.0);
  EXPECT_LT(lb.carrier_spl_at_node(common::Meters{1000.0}).raw(),
            lb.carrier_spl_at_node(common::Meters{20.0}).raw());
}

// The sonar equation with every term evaluated per call, in the order
// LinkBudget used before it cached the range-independent ones. Built only
// from the public channel API, so the cache cannot hide a moved bit.
double reference_tl_one_way(const Scenario& s, double range_m) {
  return s.env.spreading_coeff * std::log10(std::max(range_m, 1.0)) +
         channel::absorption_loss(common::Hz{s.phy.carrier_hz}, common::Meters{range_m},
                                  s.env.water)
             .raw();
}

LinkBudgetResult reference_evaluate(const Scenario& s, double mod_amp, double range_m,
                                    common::Db fading) {
  LinkBudgetResult r;
  r.tl_one_way_db = common::Db{reference_tl_one_way(s, range_m)};
  r.received_at_node_db = common::Db{s.reader.source_level_db} - r.tl_one_way_db;
  const common::Db ts_mod{kElementTargetStrengthDb +
                          20.0 * std::log10(std::max(mod_amp, 1e-12))};
  r.modulated_return_db = r.received_at_node_db + ts_mod - r.tl_one_way_db + fading;
  r.noise_in_band_db = channel::noise_level(
      common::Hz{s.phy.carrier_hz}, common::Hz{s.phy.chip_rate_hz()}, s.env.noise);
  r.snr_chip_db = common::SnrDb{r.modulated_return_db.raw() - r.noise_in_band_db.raw()};
  r.ber = phy::ber_fm0(r.snr_chip_db.to_linear().raw());
  return r;
}

std::vector<std::pair<const char*, Scenario>> budget_identity_scenarios() {
  Scenario off_axis = vab_river_scenario();
  off_axis.node.orientation_rad = common::deg_to_rad(40.0);
  return {{"river", vab_river_scenario()},
          {"ocean", vab_ocean_scenario()},
          {"hostile", hostile_river_scenario()},
          {"pab", pab_river_scenario()},
          {"river_off_axis", off_axis}};
}

// 50 log-spaced ranges over [0.5 m, 5 km]; the sub-metre ones exercise the
// 1 m spreading clamp.
std::vector<double> budget_identity_ranges() {
  std::vector<double> ranges;
  for (int i = 0; i < 50; ++i) ranges.push_back(0.5 * std::pow(10000.0, i / 49.0));
  return ranges;
}

TEST(LinkBudget, EvaluateBitIdenticalToPerCallReference) {
  for (const auto& [name, s] : budget_identity_scenarios()) {
    const LinkBudget lb(s);
    const double mod_amp = lb.node_modulation_amplitude();
    for (const double range_m : budget_identity_ranges()) {
      for (const double fade : {0.0, -7.25, 3.5}) {
        const LinkBudgetResult got =
            lb.evaluate(common::Meters{range_m}, common::Db{fade});
        const LinkBudgetResult want =
            reference_evaluate(s, mod_amp, range_m, common::Db{fade});
        SCOPED_TRACE(::testing::Message()
                     << name << " r=" << range_m << " fade=" << fade);
        EXPECT_EQ(got.tl_one_way_db.raw(), want.tl_one_way_db.raw());
        EXPECT_EQ(got.received_at_node_db.raw(), want.received_at_node_db.raw());
        EXPECT_EQ(got.modulated_return_db.raw(), want.modulated_return_db.raw());
        EXPECT_EQ(got.noise_in_band_db.raw(), want.noise_in_band_db.raw());
        EXPECT_EQ(got.snr_chip_db.raw(), want.snr_chip_db.raw());
        EXPECT_EQ(got.ber, want.ber);
      }
    }
  }
}

TEST(LinkBudget, CarrierSplBitIdenticalToPerCallReference) {
  for (const auto& [name, s] : budget_identity_scenarios()) {
    const LinkBudget lb(s);
    for (const double range_m : budget_identity_ranges()) {
      EXPECT_EQ(lb.carrier_spl_at_node(common::Meters{range_m}).raw(),
                s.reader.source_level_db - reference_tl_one_way(s, range_m))
          << name << " r=" << range_m;
    }
  }
}

TEST(LinkBudget, InvalidRangeThrows) {
  const LinkBudget lb(vab_river_scenario());
  EXPECT_THROW(lb.evaluate(common::Meters{0.0}), std::invalid_argument);
  EXPECT_THROW(lb.evaluate(common::Meters{-5.0}), std::invalid_argument);
}

}  // namespace
}  // namespace vab::sim
