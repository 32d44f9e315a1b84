// BVD transducer model, two-port networks, L-match synthesis, load
// modulation and the energy harvester.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "piezo/bvd.hpp"
#include "piezo/harvester.hpp"
#include "piezo/matching.hpp"
#include "piezo/modulator.hpp"
#include "piezo/network.hpp"

namespace vab::piezo {
namespace {

BvdModel test_transducer() {
  return BvdModel::from_resonance(18500.0, 25.0, 0.3, 10e-9, 0.6);
}

/// Parallel (anti-) resonance: Lm against Cm in series with C0.
double parallel_resonance_hz(const BvdModel& m) {
  const BvdParams& p = m.params();
  const double c_series = p.c0_farads * p.cm_farads / (p.c0_farads + p.cm_farads);
  return 1.0 / (common::kTwoPi * std::sqrt(p.lm_henries * c_series));
}

TEST(TwoPort, SeriesShuntInputImpedance) {
  const cplx z{50.0, 10.0};
  const cplx expected = z + cplx{100.0, 0.0};
  EXPECT_NEAR(std::abs(series_element(z).input_impedance(cplx{100.0, 0.0}) - expected),
              0.0, 1e-12);
  // Shunt admittance across a load: parallel combination.
  const cplx y{0.01, 0.0};
  const cplx zin = shunt_element(y).input_impedance(cplx{100.0, 0.0});
  EXPECT_NEAR(std::abs(zin - cplx{50.0, 0.0}), 0.0, 1e-9);
}

TEST(TwoPort, CascadeAssociativity) {
  const TwoPort a = series_element(cplx{10.0, 5.0});
  const TwoPort b = shunt_element(cplx{0.002, -0.001});
  const TwoPort c = series_element(cplx{0.0, -20.0});
  const cplx z1 = a.then(b).then(c).input_impedance(cplx{75.0, 0.0});
  const cplx z2 = a.then(b.then(c)).input_impedance(cplx{75.0, 0.0});
  EXPECT_NEAR(std::abs(z1 - z2), 0.0, 1e-9);
}

TEST(TwoPort, PowerTransferPeaksAtConjugateMatch) {
  const cplx zs{50.0, 30.0};
  EXPECT_NEAR(power_transfer_efficiency(std::conj(zs), zs), 1.0, 1e-12);
  EXPECT_LT(power_transfer_efficiency(cplx{5.0, 0.0}, zs), 0.5);
  EXPECT_NEAR(std::abs(reflection_coefficient(std::conj(zs), zs)), 0.0, 1e-12);
}

TEST(Bvd, ResonancesMatchConstruction) {
  const BvdModel m = test_transducer();
  const BvdParams& p = m.params();
  EXPECT_NEAR(m.series_resonance_hz(), 18500.0, 1.0);
  // k_eff^2 = (fp^2 - fs^2) / fp^2 = Cm / (C0 + Cm); Q_m = 2 pi fs Lm / Rm.
  EXPECT_NEAR(std::sqrt(p.cm_farads / (p.c0_farads + p.cm_farads)), 0.3, 1e-6);
  EXPECT_NEAR(common::kTwoPi * m.series_resonance_hz() * p.lm_henries / p.rm_ohms, 25.0,
              0.01);
  EXPECT_GT(parallel_resonance_hz(m), m.series_resonance_hz());
}

TEST(Bvd, ImpedanceResistiveMinimumAtSeriesResonance) {
  const BvdModel m = test_transducer();
  const double fs = m.series_resonance_hz();
  // |Z| has a minimum near fs and a maximum near fp.
  const double at_fs = std::abs(m.impedance(fs));
  EXPECT_LT(at_fs, std::abs(m.impedance(fs * 0.9)));
  EXPECT_LT(at_fs, std::abs(m.impedance(fs * 1.1)));
  const double fp = parallel_resonance_hz(m);
  EXPECT_GT(std::abs(m.impedance(fp)), 5.0 * at_fs);
}

TEST(Bvd, CapacitiveFarFromResonance) {
  const BvdModel m = test_transducer();
  // Far below resonance the static capacitance dominates: phase ~ -90 deg.
  const cplx z = m.impedance(1000.0);
  EXPECT_LT(z.imag(), 0.0);
  EXPECT_LT(std::abs(z.real()) / std::abs(z.imag()), 0.05);
}

TEST(Bvd, RejectsBadParameters) {
  EXPECT_THROW(BvdModel::from_resonance(-1.0, 25.0, 0.3, 1e-9), std::invalid_argument);
  EXPECT_THROW(BvdModel::from_resonance(18500.0, 25.0, 1.5, 1e-9), std::invalid_argument);
  BvdParams p;
  p.lm_henries = 0.0;
  EXPECT_THROW(BvdModel{p}, std::invalid_argument);
}

TEST(Matching, LMatchHitsTargetAtDesignFrequency) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  const cplx z_load = m.impedance(f0);
  const auto sec = design_l_match(z_load, 50.0, f0);
  ASSERT_TRUE(sec.has_value());
  const cplx zin = sec->network_at(f0).input_impedance(z_load);
  EXPECT_NEAR(zin.real(), 50.0, 0.5);
  EXPECT_NEAR(zin.imag(), 0.0, 0.5);
}

TEST(Matching, WorksBothDirections) {
  // R_L < R_S and R_L > R_S branches.
  for (const cplx z_load : {cplx{10.0, -40.0}, cplx{300.0, 80.0}}) {
    const auto sec = design_l_match(z_load, 50.0, 20000.0);
    ASSERT_TRUE(sec.has_value());
    const cplx zin = sec->network_at(20000.0).input_impedance(z_load);
    EXPECT_NEAR(zin.real(), 50.0, 0.1) << z_load;
    EXPECT_NEAR(zin.imag(), 0.0, 0.1) << z_load;
  }
}

TEST(Matching, MatchedBeatsUnmatchedAtDesign) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  const MatchedTransducer mt(m, 50.0, f0);
  EXPECT_GT(mt.radiated_fraction(f0), mt.radiated_fraction_unmatched(f0));
  EXPECT_NEAR(mt.radiated_fraction(f0), m.eta_acoustic(), 0.01);
}

TEST(Matching, EfficiencyRollsOffAwayFromDesign) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  const MatchedTransducer mt(m, 50.0, f0);
  EXPECT_GT(mt.radiated_fraction(f0), mt.radiated_fraction(f0 * 1.10));
  EXPECT_GT(mt.radiated_fraction(f0), mt.radiated_fraction(f0 * 0.90));
}

TEST(Modulator, OpenShortNearlyAntipodal) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  const LoadModulator mod(m.impedance(f0));
  const cplx g_open = mod.gamma(LoadState::kOpen, f0);
  const cplx g_short = mod.gamma(LoadState::kShort, f0);
  EXPECT_GT(std::abs(g_open - g_short), 1.0);  // > half of the full 2.0 swing
  EXPECT_GT(mod.modulation_depth(LoadState::kOpen, LoadState::kShort, f0), 0.5);
}

TEST(Modulator, MatchedStateAbsorbs) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  const LoadModulator mod(m.impedance(f0));
  EXPECT_LT(std::abs(mod.gamma(LoadState::kMatched, f0)), 0.05);
}

TEST(Modulator, InsertionLossReducesDepth) {
  const BvdModel m = test_transducer();
  const double f0 = m.series_resonance_hz();
  SwitchModel lossy;
  lossy.insertion_loss_db = 3.0;
  const LoadModulator clean(m.impedance(f0));
  const LoadModulator bad(m.impedance(f0), lossy);
  EXPECT_GT(clean.modulation_depth(LoadState::kOpen, LoadState::kShort, f0),
            bad.modulation_depth(LoadState::kOpen, LoadState::kShort, f0));
}

TEST(Harvester, RectifierKneeBehaviour) {
  RectifierModel r;
  EXPECT_DOUBLE_EQ(rectifier_efficiency(r, 0.1), 0.0);  // below diode drop
  EXPECT_GT(rectifier_efficiency(r, 5.0), 0.9 * r.peak_efficiency);
  EXPECT_LT(rectifier_efficiency(r, 0.4), rectifier_efficiency(r, 2.0));
}

TEST(Harvester, PowerScalesWithIntensity) {
  const BvdModel m = test_transducer();
  EnergyHarvester h(m);
  const double p1 = h.available_electrical_power_w(1.0);
  const double p2 = h.available_electrical_power_w(2.0);
  EXPECT_NEAR(p2 / p1, 4.0, 1e-9);  // intensity ~ pressure^2
}

TEST(Harvester, EnergyNeutralAtHighIncidentPressure) {
  const BvdModel m = test_transducer();
  EnergyHarvester h(m);
  PowerBudget b;
  // Harvesting happens only while absorbing (sleep + listen), against the
  // node's average draw over the whole duty cycle.
  const double harvest_duty = 0.90 + 0.05;
  const double draw_w = b.average_power_w(0.90, 0.05, 0.04, 0.01);
  // 165 dB re 1 uPa incident (strong carrier near the reader).
  const double p_strong = common::pressure_from_spl(165.0);
  EXPECT_GE(h.harvested_power_w(p_strong) * harvest_duty, draw_w);
  // 110 dB is far too weak to power even the sleep current.
  const double p_weak = common::pressure_from_spl(110.0);
  EXPECT_LT(h.harvested_power_w(p_weak) * harvest_duty, b.sleep_w);
}

TEST(Harvester, PowerBudgetAccounting) {
  PowerBudget b;
  const double avg = b.average_power_w(0.9, 0.05, 0.04, 0.01);
  EXPECT_GT(avg, b.sleep_w);
  EXPECT_LT(avg, b.mcu_active_w);
  EXPECT_THROW(b.average_power_w(0.9, 0.2, 0.2, 0.2), std::invalid_argument);
  EXPECT_NEAR(energy_per_bit_j(b, 500.0), b.backscatter_w / 500.0, 1e-15);
}

}  // namespace
}  // namespace vab::piezo
