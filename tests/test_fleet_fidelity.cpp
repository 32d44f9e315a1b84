// Cross-fidelity equivalence: the abstracted PHY (link-budget SNR -> the
// scenario's McsEntry delivery curve -> one coin) must agree with the full
// waveform pipeline on the overlap scenarios where both models are
// trustworthy.
//
// Calibrated tolerance bands (see DESIGN.md):
//  - solidly good links (mid range, SNR well above the waterfall): both
//    fidelities deliver; |rate_budget - rate_waveform| <= 0.15.
//  - solidly dead links (far past the budget's maximum range): both starve;
//    each delivery rate <= 0.10.
//  - the waterfall edge itself is EXCLUDED from equivalence: the waveform
//    chain carries up to ~6 dB of implementation loss relative to the
//    analytic budget (see WaveformE2E.LinkBudgetCalibratesAgainstWaveformSnr),
//    which is decisive exactly there. That disagreement region is why the
//    adaptive fidelity policy escalates links within escalate_margin_db of
//    the waterfall to the waveform model instead of trusting the budget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "common/rng.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/mcs/mcs.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using sim::fleet::FidelityMode;
using sim::fleet::FidelityPolicy;
using sim::fleet::FleetLinkTransport;

constexpr std::size_t kReportBits = 96;  // header + packed reading + CRC

bytes report_wire(std::uint8_t seq) {
  net::Frame f;
  f.addr = 0;
  f.type = net::FrameType::kSensorReport;
  f.seq = seq;
  f.payload = net::encode_reading({14.0, 101.3, 3100});
  return net::serialize(f);
}

/// Delivery rate of `trials` polls of one link at `range_m` under `mode`:
/// the wire must survive the transport AND still parse with a valid CRC.
double delivery_rate(const sim::Scenario& base, FidelityMode mode,
                     double range_m, std::size_t trials, std::uint64_t seed) {
  FidelityPolicy policy;
  policy.mode = mode;
  policy.max_waveform_polls = trials + 1;
  FleetLinkTransport tp(base, policy, common::Db{3.0}, kReportBits);
  const common::Rng rng(seed);
  tp.begin_window({{1, range_m, common::SnrDb{0.0}}}, rng.child(1));
  common::Rng poll_rng = rng.child(2);
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    bytes wire = report_wire(static_cast<std::uint8_t>(t));
    if (!tp.uplink_delivered(0, wire, poll_rng)) continue;
    const net::ParseResult parsed = net::parse_checked(wire);
    if (parsed.frame && parsed.frame->type == net::FrameType::kSensorReport)
      ++delivered;
  }
  return static_cast<double>(delivered) / static_cast<double>(trials);
}

sim::Scenario overlap_scenario() {
  sim::Scenario s = sim::vab_river_scenario();
  s.env.fading_sigma_db = 0.0;  // no shadowing: the models' means must meet
  return s;
}

TEST(FleetFidelity, MidRangeDeliveryMatchesWaveform) {
  const sim::Scenario s = overlap_scenario();
  const double budget = delivery_rate(s, FidelityMode::kBudgetOnly, 100.0, 32, 31);
  const double wave = delivery_rate(s, FidelityMode::kWaveformOnly, 100.0, 12, 32);
  EXPECT_GE(budget, 0.9);
  EXPECT_GE(wave, 0.9);
  EXPECT_NEAR(budget, wave, 0.15);
}

TEST(FleetFidelity, DeadRangeStarvesUnderBothFidelities) {
  const sim::Scenario s = overlap_scenario();
  const double budget = delivery_rate(s, FidelityMode::kBudgetOnly, 700.0, 32, 33);
  const double wave = delivery_rate(s, FidelityMode::kWaveformOnly, 700.0, 6, 34);
  EXPECT_LE(budget, 0.10);
  EXPECT_LE(wave, 0.10);
}

TEST(FleetFidelity, BudgetPathMatchesItsOwnAnalyticMean) {
  // With lognormal shadowing on, the budget path's empirical delivery rate
  // must converge to E_fade[p(snr + fade)]; estimate the expectation by
  // Gauss-grid integration and require 3-sigma binomial agreement. This
  // pins the draw composition (one gaussian + one coin per poll).
  sim::Scenario s = sim::vab_river_scenario();
  s.env.fading_sigma_db = 3.0;
  const sim::LinkBudget lb(s);
  const FleetLinkTransport tp(s, {}, common::Db{3.0}, kReportBits);
  const double range = 290.0;
  const double snr = net::mcs::to_reference_scale(
                         lb.evaluate(common::Meters{range}).snr_chip_db,
                         s.phy.chip_rate())
                         .raw();

  double expected = 0.0, weight = 0.0;
  for (double z = -4.0; z <= 4.0; z += 0.05) {
    const double w = std::exp(-0.5 * z * z);
    expected += w * tp.uplink_entry().frame_delivery_prob(
                        common::SnrDb{snr + 3.0 * z}, kReportBits);
    weight += w;
  }
  expected /= weight;

  const std::size_t trials = 3000;
  const double rate =
      delivery_rate(s, FidelityMode::kBudgetOnly, range, trials, 35);
  const double sigma = std::sqrt(expected * (1.0 - expected) /
                                 static_cast<double>(trials));
  EXPECT_NEAR(rate, expected, 3.0 * sigma + 0.01);
}

TEST(FleetFidelity, DeliveryRatesDecayWithRangeUnderBothFidelities) {
  const sim::Scenario s = overlap_scenario();
  const double b_near = delivery_rate(s, FidelityMode::kBudgetOnly, 50.0, 24, 36);
  const double b_far = delivery_rate(s, FidelityMode::kBudgetOnly, 700.0, 24, 36);
  EXPECT_GE(b_near, b_far);
  const double w_near = delivery_rate(s, FidelityMode::kWaveformOnly, 50.0, 6, 37);
  const double w_far = delivery_rate(s, FidelityMode::kWaveformOnly, 700.0, 6, 37);
  EXPECT_GE(w_near, w_far);
}

TEST(FleetFidelity, EscalationRegionCoversTheModelDisagreementBand) {
  // The default policy's escalation margin must cover the range band where
  // the budget's predicted delivery transitions from good to dead — i.e. a
  // link the budget calls marginal is exactly a link sent to the waveform.
  const sim::Scenario s = overlap_scenario();
  const FidelityPolicy policy;  // defaults: adaptive, 2 dB margin
  const FleetLinkTransport tp(s, policy, common::Db{3.0}, kReportBits);
  const double w = tp.waterfall_snr_db().raw();
  const double p_hi = tp.uplink_entry().frame_delivery_prob(
      common::SnrDb{w + policy.escalate_margin_db}, kReportBits);
  const double p_lo = tp.uplink_entry().frame_delivery_prob(
      common::SnrDb{w - policy.escalate_margin_db}, kReportBits);
  EXPECT_GT(p_hi, 0.75);  // above the margin: budget is trustworthy-good
  EXPECT_LT(p_lo, 0.25);  // below the margin: budget is trustworthy-dead
}

}  // namespace
}  // namespace vab
