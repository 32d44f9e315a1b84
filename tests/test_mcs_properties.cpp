// Property tests for the MCS ladder and the rate-adaptation controller.
//
// Three property families:
//  1. Curves — every rung's BER/delivery is monotone in SNR, the reference
//     rung reproduces the legacy fleet curve bit-for-bit, and the ladder's
//     validation rejects mis-ordered tables.
//  2. Controller — under constant SNR the hysteresis band prevents rung
//     flapping over a 1000-observation run (monotone convergence, then
//     silence), dwell spacing holds, and the outcome-path fallback moves
//     the right way.
//  3. Workload — adaptive MCS beats fixed-rate goodput at high SNR and
//     matches its delivery at low SNR over the telemetry workload, with
//     deterministic results at a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/inventory.hpp"
#include "net/mcs/adapt.hpp"
#include "net/mcs/mcs.hpp"
#include "net/mcs/transport.hpp"
#include "obs/metrics.hpp"
#include "phy/ber.hpp"

namespace vab {
namespace {

using net::mcs::AdaptConfig;
using net::mcs::AnalyticMcsConfig;
using net::mcs::AnalyticMcsTransport;
using net::mcs::McsEntry;
using net::mcs::McsLadder;
using net::mcs::RateController;

const McsLadder& ladder() {
  static const McsLadder* l = new McsLadder(McsLadder::default_ladder());
  return *l;
}

// ---------------------------------------------------------------------------
// 1. Curve properties
// ---------------------------------------------------------------------------

TEST(McsEntryProperties, ChipsPerBitMatchesLineCode) {
  EXPECT_EQ((McsEntry{"a", 500.0, phy::UplinkCode::kFm0, false}).chips_per_bit(), 2u);
  EXPECT_EQ((McsEntry{"b", 500.0, phy::UplinkCode::kMiller2, false}).chips_per_bit(),
            4u);
  EXPECT_EQ((McsEntry{"c", 500.0, phy::UplinkCode::kMiller4, false}).chips_per_bit(),
            8u);
}

TEST(McsEntryProperties, DataRateAppliesFecPenalty) {
  const McsEntry uncoded{"u", 700.0, phy::UplinkCode::kFm0, false};
  const McsEntry coded{"c", 700.0, phy::UplinkCode::kFm0, true};
  EXPECT_DOUBLE_EQ(uncoded.data_rate_bps(), 700.0);
  EXPECT_DOUBLE_EQ(coded.data_rate_bps(), 700.0 * 4.0 / 7.0);
}

TEST(McsEntryProperties, ReferenceRungMatchesLegacyFleetCurveBitForBit) {
  // The paper rung (FM0, 500 bps, uncoded) must evaluate to *exactly* the
  // uncoded FM0 expression the fleet's budget path was pinned to before it
  // moved onto McsEntry — the analytic ladder may not move any legacy
  // seeded outcome.
  const McsEntry& ref = ladder().rung(McsLadder::kPaperRung);
  ASSERT_EQ(ref.bitrate_bps, 500.0);
  ASSERT_FALSE(ref.fec);
  for (double snr = -20.0; snr <= 30.0; snr += 0.25) {
    for (const std::size_t bits : {48u, 96u, 176u}) {
      const double legacy = std::pow(1.0 - phy::ber_fm0(std::pow(10.0, snr / 10.0)),
                                     static_cast<double>(bits));
      EXPECT_EQ(ref.frame_delivery_prob(common::SnrDb{snr}, bits), legacy)
          << "snr=" << snr << " bits=" << bits;
    }
  }
}

TEST(McsEntryProperties, FromConfigInvertsApply) {
  for (const McsEntry& e : ladder().rungs()) {
    phy::PhyConfig phy_cfg;
    phy::FecConfig fec_cfg;
    e.apply(phy_cfg, fec_cfg);
    const McsEntry back = McsEntry::from_config(phy_cfg, fec_cfg);
    EXPECT_EQ(back.bitrate_bps, e.bitrate_bps) << e.name;
    EXPECT_EQ(back.code, e.code) << e.name;
    EXPECT_EQ(back.fec, e.fec) << e.name;
    EXPECT_EQ(back.chips_per_bit(), phy_cfg.chips_per_bit()) << e.name;
  }
}

TEST(McsEntryProperties, ReferenceScaleConversionIsExactAtReferenceChipRate) {
  const common::Hz ref{net::mcs::kReferenceChipRateHz};
  const common::Hz twice{2.0 * net::mcs::kReferenceChipRateHz};
  for (const double snr : {-7.25, 0.0, 3.5, 12.0}) {
    EXPECT_EQ(net::mcs::to_reference_scale(common::SnrDb{snr}, ref).raw(), snr);
    EXPECT_NEAR(net::mcs::to_reference_scale(common::SnrDb{snr}, twice).raw(),
                snr + 10.0 * std::log10(2.0), 1e-12);
  }
}

TEST(McsEntryProperties, BerMonotoneNonincreasingInSnrPerRung) {
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    double prev = 1.0;
    for (double snr = -25.0; snr <= 35.0; snr += 0.5) {
      const double b = ladder().rung(r).ber(common::SnrDb{snr});
      EXPECT_LE(b, prev + 1e-15) << "rung " << r << " snr " << snr;
      EXPECT_GE(b, 0.0);
      EXPECT_LE(b, 0.5);
      prev = b;
    }
  }
}

TEST(McsEntryProperties, FrameDeliveryMonotoneNondecreasingInSnrPerRung) {
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    double prev = 0.0;
    for (double snr = -25.0; snr <= 35.0; snr += 0.5) {
      const double p = ladder().rung(r).frame_delivery_prob(common::SnrDb{snr}, 96);
      // pow() noise in the saturated region is ~1e-14; anything larger is a
      // real non-monotonicity.
      EXPECT_GE(p, prev - 1e-12) << "rung " << r << " snr " << snr;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(McsLadderProperties, TotallyOrderedByDataRate) {
  for (std::size_t r = 1; r < ladder().size(); ++r)
    EXPECT_GT(ladder().rung(r).data_rate_bps(), ladder().rung(r - 1).data_rate_bps());
}

TEST(McsLadderProperties, ThroughputOrderHoldsAtHighSnr) {
  // At an SNR where every rung is clean, effective throughput (data rate x
  // delivery) must increase with the rung index: "step up" means faster.
  double prev = 0.0;
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    const McsEntry& e = ladder().rung(r);
    const double tput =
        e.data_rate_bps() * e.frame_delivery_prob(common::SnrDb{25.0}, 96);
    EXPECT_GT(tput, prev) << "rung " << r;
    prev = tput;
  }
}

TEST(McsLadderProperties, WaterfallSnrStrictlyIncreasing) {
  double prev = -1e9;
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    const double wf = ladder().rung(r).snr_for_delivery(0.5, 96).raw();
    EXPECT_GT(wf, prev) << "rung " << r;
    prev = wf;
  }
}

TEST(McsLadderProperties, BottomRungMostRobustAtLowSnr) {
  const double lo = ladder().rung(0).snr_for_delivery(0.5, 96).raw() + 1.0;
  const double p_bottom = ladder().rung(0).frame_delivery_prob(common::SnrDb{lo}, 96);
  const double p_top =
      ladder().rung(ladder().size() - 1).frame_delivery_prob(common::SnrDb{lo}, 96);
  EXPECT_GT(p_bottom, 0.5);
  EXPECT_LT(p_top, 0.1);
}

TEST(McsLadderProperties, FecHelpsInTheWaterfallRegion) {
  // fm0-500-fec vs fm0-500 at the uncoded rung's waterfall: the code must
  // buy delivery there (that is its entire purpose on the ladder).
  const McsEntry coded{"c", 500.0, phy::UplinkCode::kFm0, true};
  const McsEntry uncoded{"u", 500.0, phy::UplinkCode::kFm0, false};
  const double wf =
      ladder().rung(McsLadder::kPaperRung).snr_for_delivery(0.5, 96).raw();
  EXPECT_GT(coded.frame_delivery_prob(common::SnrDb{wf}, 96),
            uncoded.frame_delivery_prob(common::SnrDb{wf}, 96));
}

TEST(McsLadderValidation, RejectsEmptyLadder) {
  EXPECT_THROW(McsLadder({}), std::invalid_argument);
}

TEST(McsLadderValidation, RejectsOversizedLadder) {
  std::vector<McsEntry> rungs;
  for (std::size_t i = 0; i < net::mcs::kMaxRungs + 1; ++i)
    rungs.push_back({"r", 100.0 * static_cast<double>(i + 1),
                     phy::UplinkCode::kFm0, false});
  EXPECT_THROW(McsLadder(std::move(rungs)), std::invalid_argument);
}

TEST(McsLadderValidation, RejectsNonIncreasingDataRate) {
  std::vector<McsEntry> rungs;
  rungs.push_back({"fast", 1000.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"slow", 500.0, phy::UplinkCode::kFm0, false});
  EXPECT_THROW(McsLadder(std::move(rungs)), std::invalid_argument);
}

TEST(McsLadderValidation, RejectsInvertedRobustnessOrder) {
  // Data rate increases 100 -> 110 bps, but the Miller-4 rung's combining
  // gain plus clutter margin makes it *more* robust than the FM0 rung: the
  // waterfall ordering check must reject the table.
  std::vector<McsEntry> rungs;
  rungs.push_back({"fm0-100", 100.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"m4-110", 110.0, phy::UplinkCode::kMiller4, false});
  EXPECT_THROW(McsLadder(std::move(rungs)), std::invalid_argument);
}

TEST(McsLadderValidation, RungIndexOutOfRangeThrows) {
  EXPECT_THROW(ladder().rung(ladder().size()), std::out_of_range);
}

TEST(McsLadderValidation, SnrForDeliveryRejectsDegenerateTargets) {
  EXPECT_THROW(ladder().rung(0).snr_for_delivery(0.0, 96), std::invalid_argument);
  EXPECT_THROW(ladder().rung(0).snr_for_delivery(1.0, 96), std::invalid_argument);
}

TEST(McsLadderProperties, SnrForDeliveryInvertsTheCurve) {
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    for (const double target : {0.5, 0.9}) {
      const double snr = ladder().rung(r).snr_for_delivery(target, 96).raw();
      EXPECT_NEAR(ladder().rung(r).frame_delivery_prob(common::SnrDb{snr}, 96), target,
                  1e-6)
          << "rung " << r << " target " << target;
    }
  }
}

TEST(McsEntryProperties, SlotDurationMatchesMacTimingAtReferenceRung) {
  const net::MacTiming t{};  // uplink 500 bps, 12-byte slot payload
  EXPECT_DOUBLE_EQ(
      ladder().rung(McsLadder::kPaperRung).slot_duration(t.slot_payload_bytes).raw(),
      t.slot_duration_s());
}

TEST(McsEntryProperties, SlotDurationGrowsWithFecAndShrinksWithRate) {
  const McsEntry coded{"c", 500.0, phy::UplinkCode::kFm0, true};
  const McsEntry uncoded{"u", 500.0, phy::UplinkCode::kFm0, false};
  const McsEntry fast{"f", 2000.0, phy::UplinkCode::kFm0, false};
  EXPECT_GT(coded.slot_duration(12).raw(), uncoded.slot_duration(12).raw());
  EXPECT_LT(fast.slot_duration(12).raw(), uncoded.slot_duration(12).raw());
}

TEST(McsEntryProperties, ApplyWritesModemAndFecState) {
  phy::PhyConfig phy_cfg;
  phy::FecConfig fec_cfg;
  const McsEntry& e = ladder().rung(0);  // m4-125-fec
  e.apply(phy_cfg, fec_cfg);
  EXPECT_EQ(phy_cfg.bitrate_bps, 125.0);
  EXPECT_EQ(phy_cfg.uplink_code, phy::UplinkCode::kMiller4);
  EXPECT_TRUE(fec_cfg.enable);
}

// ---------------------------------------------------------------------------
// 2. Controller properties
// ---------------------------------------------------------------------------

TEST(RateControllerProperties, StartRungClampedToLadder) {
  AdaptConfig cfg;
  cfg.start_rung = 99;
  RateController ctl(ladder(), cfg);
  EXPECT_EQ(ctl.rung(), ladder().size() - 1);
}

TEST(RateControllerProperties, ThresholdBandsAreOrdered) {
  AdaptConfig cfg;
  RateController ctl(ladder(), cfg);
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    EXPECT_LT(ctl.down_threshold(r).raw(), ctl.up_threshold(r).raw()) << "rung " << r;
    if (r + 1 < ladder().size()) {
      // Stepping up to r+1 must land *inside* r+1's comfort zone: the SNR
      // that justified the step exceeds r+1's step-down threshold by the
      // hysteresis margin, so one step can never immediately revert.
      EXPECT_GE(ctl.up_threshold(r).raw(),
                ctl.down_threshold(r + 1).raw() + net::mcs::kHysteresisDb - 1e-9)
          << "rung " << r;
    }
  }
}

TEST(RateControllerProperties, NoFlappingOver1000ConstantSnrObservations) {
  // The headline property: for ANY constant SNR, the controller walks
  // monotonically to its stable rung and then never moves again.
  for (double snr = -15.0; snr <= 30.0; snr += 0.5) {
    AdaptConfig cfg;
    RateController ctl(ladder(), cfg);
    std::size_t changes_after_settle = 0;
    std::size_t settle_polls = 0;
    std::size_t last_rung = ctl.rung();
    for (int i = 0; i < 1000; ++i) {
      ctl.observe(common::SnrDb{snr}, true);
      if (ctl.rung() != last_rung) {
        last_rung = ctl.rung();
        settle_polls = ctl.polls();
      }
    }
    // Monotone: under constant SNR the controller never reverses direction.
    EXPECT_TRUE(ctl.steps_up() == 0 || ctl.steps_down() == 0) << "snr " << snr;
    // Bounded: it can cross the ladder at most once.
    EXPECT_LE(ctl.steps_up() + ctl.steps_down(), ladder().size() - 1)
        << "snr " << snr;
    // Settled: every change happened in the initial walk, with dwell
    // spacing, so the last move is early in the run.
    EXPECT_LE(settle_polls,
              cfg.min_dwell_polls * ladder().size() + cfg.min_dwell_polls)
        << "snr " << snr;
    (void)changes_after_settle;
  }
}

TEST(RateControllerProperties, ConvergesToTopRungAtHighSnr) {
  AdaptConfig cfg;
  RateController ctl(ladder(), cfg);
  for (int i = 0; i < 200; ++i) ctl.observe(common::SnrDb{30.0}, true);
  EXPECT_EQ(ctl.rung(), ladder().size() - 1);
  EXPECT_EQ(ctl.steps_down(), 0u);
}

TEST(RateControllerProperties, ConvergesToBottomRungAtVeryLowSnr) {
  AdaptConfig cfg;
  RateController ctl(ladder(), cfg);
  for (int i = 0; i < 200; ++i) ctl.observe(common::SnrDb{-20.0}, false);
  EXPECT_EQ(ctl.rung(), 0u);
  EXPECT_EQ(ctl.steps_up(), 0u);
}

TEST(RateControllerProperties, MinDwellSpacesConsecutiveSteps) {
  AdaptConfig cfg;
  cfg.min_dwell_polls = 7;
  cfg.start_rung = 0;
  RateController ctl(ladder(), cfg);
  std::size_t last_step_poll = 0;
  bool have_step = false;
  for (int i = 0; i < 300; ++i) {
    const int step = ctl.observe(common::SnrDb{30.0}, true);
    if (step != 0) {
      if (have_step) {
        EXPECT_GE(ctl.polls() - last_step_poll, 7u);
      }
      last_step_poll = ctl.polls();
      have_step = true;
    }
  }
  EXPECT_TRUE(have_step);
}

TEST(RateControllerProperties, OutcomePathStepsDownOnLossStreak) {
  AdaptConfig cfg;
  RateController ctl(ladder(), cfg);
  for (int i = 0; i < 50; ++i) ctl.observe(std::nullopt, false);
  EXPECT_LT(ctl.rung(), cfg.start_rung);
  EXPECT_EQ(ctl.steps_up(), 0u);
}

TEST(RateControllerProperties, OutcomePathStepsUpOnCleanStreak) {
  AdaptConfig cfg;
  RateController ctl(ladder(), cfg);
  for (int i = 0; i < 50; ++i) ctl.observe(std::nullopt, true);
  EXPECT_GT(ctl.rung(), cfg.start_rung);
  EXPECT_EQ(ctl.steps_down(), 0u);
}

TEST(RateControllerProperties, FrozenControllerNeverMoves) {
  AdaptConfig cfg;
  cfg.frozen = true;
  RateController ctl(ladder(), cfg);
  for (int i = 0; i < 100; ++i) ctl.observe(common::SnrDb{30.0}, true);
  for (int i = 0; i < 100; ++i) ctl.observe(common::SnrDb{-20.0}, false);
  EXPECT_EQ(ctl.rung(), cfg.start_rung);
  EXPECT_EQ(ctl.steps_up() + ctl.steps_down(), 0u);
}

// ---------------------------------------------------------------------------
// 3. Transport + telemetry workload properties
// ---------------------------------------------------------------------------

TEST(AnalyticMcsTransportProperties, RecordsLastUplinkSnr) {
  AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = 12.5;
  AnalyticMcsTransport tp(ladder(), tcfg);
  EXPECT_FALSE(tp.last_uplink_snr_db().has_value());
  common::Rng rng(1);
  bytes wire(12, 0xAA);
  tp.uplink_delivered(3, wire, rng);
  ASSERT_TRUE(tp.last_uplink_snr_db().has_value());
  EXPECT_DOUBLE_EQ(tp.last_uplink_snr_db()->raw(), 12.5);  // no fading configured
}

TEST(AnalyticMcsTransportProperties, PerAddressSnrOverride) {
  AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = 10.0;
  AnalyticMcsTransport tp(ladder(), tcfg);
  tp.set_snr_db(7, common::SnrDb{-3.0});
  EXPECT_DOUBLE_EQ(tp.snr_db(7).raw(), -3.0);
  EXPECT_DOUBLE_EQ(tp.snr_db(8).raw(), 10.0);
}

TEST(AnalyticMcsTransportProperties, DrawCountIndependentOfRung) {
  // Fault schedules must line up across rungs: after N uplinks the Rng must
  // sit at the same position whatever rung was commanded.
  auto drain = [](std::size_t rung) {
    AnalyticMcsConfig tcfg;
    tcfg.snr_ref_db = 25.0;
    tcfg.default_rung = rung;
    AnalyticMcsTransport tp(ladder(), tcfg);
    common::Rng rng(0xD12A40);
    bytes wire(12, 0x55);
    for (int i = 0; i < 64; ++i) tp.uplink_delivered(1, wire, rng);
    return rng.uniform();  // sentinel: equal iff the same draws happened
  };
  const double sentinel0 = drain(0);
  for (std::size_t r = 1; r < ladder().size(); ++r)
    EXPECT_EQ(drain(r), sentinel0) << "rung " << r;
}

TEST(AnalyticMcsTransportProperties, CommandedRungOverridesDefault) {
  AnalyticMcsConfig tcfg;
  AnalyticMcsTransport tp(ladder(), tcfg);
  EXPECT_EQ(&tp.entry_for(5), &ladder().rung(tcfg.default_rung));
  tp.set_uplink_mcs(5, &ladder().rung(1));
  EXPECT_EQ(&tp.entry_for(5), &ladder().rung(1));
  tp.set_uplink_mcs(5, nullptr);
  EXPECT_EQ(&tp.entry_for(5), &ladder().rung(tcfg.default_rung));
}

std::vector<std::uint8_t> population(std::size_t n) {
  std::vector<std::uint8_t> pop(n);
  for (std::size_t i = 0; i < n; ++i) pop[i] = static_cast<std::uint8_t>(i + 1);
  return pop;
}

/// Telemetry timing for a short-range dense deployment: a faster downlink
/// and a tight guard, so the uplink rate actually dominates the airtime.
net::MacTiming bench_timing() {
  net::MacTiming t;
  t.downlink_bitrate_bps = 500.0;
  t.guard_s = 0.1;
  return t;
}

net::TelemetryResult telemetry_at(double snr_db, bool adaptive,
                                  std::uint64_t seed, std::size_t cycles = 60) {
  net::InventoryConfig cfg;
  cfg.timing = bench_timing();
  if (adaptive) cfg.ladder = &ladder();
  AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = snr_db;
  AnalyticMcsTransport tp(ladder(), tcfg);
  common::Rng rng(seed);
  return net::run_telemetry(population(8), cycles, cfg, nullptr, rng, &tp);
}

TEST(TelemetryWorkload, AdaptiveBeatsFixedGoodputAtHighSnr) {
  const auto fixed = telemetry_at(25.0, false, 0xBEEF);
  const auto adaptive = telemetry_at(25.0, true, 0xBEEF);
  ASSERT_GT(fixed.goodput_bps(), 0.0);
  EXPECT_GE(adaptive.goodput_bps(), 1.5 * fixed.goodput_bps())
      << "adaptive " << adaptive.goodput_bps() << " fixed " << fixed.goodput_bps();
}

TEST(TelemetryWorkload, AdaptiveMatchesFixedDeliveryAtLowSnr) {
  // Just above the bottom rung's waterfall: fixed-rate FM0-500 is deep in
  // its loss region; the adaptive ladder steps down and holds delivery.
  const double snr = ladder().rung(0).snr_for_delivery(0.9, 96).raw();
  const auto fixed = telemetry_at(snr, false, 0xF10D);
  const auto adaptive = telemetry_at(snr, true, 0xF10D);
  EXPECT_GE(adaptive.totals.delivery_ratio(), fixed.totals.delivery_ratio());
  EXPECT_GT(static_cast<double>(adaptive.totals.delivered),
            0.5 * static_cast<double>(adaptive.totals.nodes) *
                static_cast<double>(adaptive.cycles) * 0.9);
}

TEST(TelemetryWorkload, AdaptiveRunIsDeterministic) {
  const auto a = telemetry_at(18.0, true, 0x5EED);
  const auto b = telemetry_at(18.0, true, 0x5EED);
  EXPECT_EQ(a.totals.delivered, b.totals.delivered);
  EXPECT_EQ(a.totals.polls, b.totals.polls);
  EXPECT_EQ(a.totals.mcs_steps_up, b.totals.mcs_steps_up);
  EXPECT_EQ(a.totals.mcs_steps_down, b.totals.mcs_steps_down);
  EXPECT_EQ(a.totals.rung_polls, b.totals.rung_polls);
  EXPECT_EQ(a.delivered_per_node, b.delivered_per_node);
  EXPECT_EQ(a.totals.duration_s, b.totals.duration_s);
}

TEST(TelemetryWorkload, RungResidencyAndReconfiguresRecorded) {
  const auto adaptive = telemetry_at(25.0, true, 0x0B5);
  // The controllers walked up from the paper rung: multiple rungs visited,
  // reconfigurations counted, and residency sums to the observed polls.
  EXPECT_GT(adaptive.totals.mcs_steps_up, 0u);
  EXPECT_GT(adaptive.totals.reconfigures, 0u);
  EXPECT_GT(adaptive.totals.rung_polls.size(), 1u);
  std::size_t residency = 0;
  for (const auto& [rung, polls] : adaptive.totals.rung_polls) {
    EXPECT_LT(rung, ladder().size());
    residency += polls;
  }
  EXPECT_GT(residency, 0u);
}

/// Counters a registry snapshot's "counters" section holds, by name.
std::map<std::string, std::uint64_t> snapshot_counters(const std::string& json) {
  std::map<std::string, std::uint64_t> out;
  const std::string open = "\"counters\":{";
  std::size_t i = json.find(open);
  if (i == std::string::npos) return out;
  i += open.size();
  while (i < json.size() && json[i] == '"') {
    const std::size_t name_end = json.find('"', i + 1);
    const std::string name = json.substr(i + 1, name_end - i - 1);
    i = name_end + 2;  // past the closing quote and the colon
    std::uint64_t v = 0;
    for (; i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i)
      v = v * 10 + static_cast<std::uint64_t>(json[i] - '0');
    out[name] = v;
    if (i < json.size() && json[i] == ',') ++i;
  }
  return out;
}

// What telemetry_at(18.0, true, 0x5EED) records: the four rungs it polls,
// its ACKs, steps and node reconfigurations.
constexpr const char* kLadderRunCounters =
    "net.arq.acks +478\n"
    "net.mcs.reconfigures +24\n"
    "net.mcs.rung_polls{rung=fm0-1000} +32\n"
    "net.mcs.rung_polls{rung=fm0-2000} +32\n"
    "net.mcs.rung_polls{rung=fm0-4000} +384\n"
    "net.mcs.rung_polls{rung=fm0-500} +32\n"
    "net.mcs.steps_up +24\n"
    "stage.net.telemetry.calls +1\n";

TEST(TelemetryWorkload, LadderRunMetricsPinned) {
  // Every counter a fixed-seed ladder run moves in the global registry, as
  // "name +delta" lines, less the wall-clock *.ns timers. The delta keeps
  // the pin independent of what other tests in the process recorded.
  const auto before = snapshot_counters(obs::Registry::global().snapshot_json(false));
  (void)telemetry_at(18.0, true, 0x5EED);
  const auto after = snapshot_counters(obs::Registry::global().snapshot_json(false));
  std::string delta;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    const std::uint64_t was = it == before.end() ? 0 : it->second;
    const bool timer = name.size() > 3 && name.compare(name.size() - 3, 3, ".ns") == 0;
    if (!timer && v != was) delta += name + " +" + std::to_string(v - was) + "\n";
    // A rung series is registered on the rung's first poll, so none reads 0:
    // the ladder's three unused rungs never appear.
    if (name.starts_with("net.mcs.rung_polls{rung=")) {
      EXPECT_GT(v, 0u) << name;
    }
  }
  EXPECT_EQ(delta, kLadderRunCounters);
}

TEST(TelemetryWorkload, FairnessIsPerfectOnAHomogeneousCleanLink) {
  const auto r = telemetry_at(25.0, true, 0x7A17);
  EXPECT_DOUBLE_EQ(r.jain_fairness(), 1.0);
  EXPECT_TRUE(r.totals.complete);
}

TEST(TelemetryWorkload, FairnessDropsWhenOneNodeStarves) {
  net::InventoryConfig cfg;
  cfg.timing = bench_timing();
  cfg.ladder = &ladder();
  AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = 25.0;
  AnalyticMcsTransport tp(ladder(), tcfg);
  tp.set_snr_db(1, common::SnrDb{-30.0});  // node 1 is effectively dark at every rung
  common::Rng rng(0x57A2);
  const auto r = net::run_telemetry(population(8), 40, cfg, nullptr, rng, &tp);
  EXPECT_LT(r.jain_fairness(), 1.0);
  EXPECT_GT(r.jain_fairness(), 0.7);  // 7 of 8 nodes deliver evenly
  EXPECT_FALSE(r.totals.complete);
  EXPECT_EQ(r.delivered_per_node[0], 0u);
}

TEST(TelemetryWorkload, LegacyPathIgnoresLadderAccounting) {
  // Without a ladder the telemetry loop must report zero MCS activity.
  const auto fixed = telemetry_at(25.0, false, 0x1E6);
  EXPECT_EQ(fixed.totals.mcs_steps_up, 0u);
  EXPECT_EQ(fixed.totals.mcs_steps_down, 0u);
  EXPECT_EQ(fixed.totals.reconfigures, 0u);
  EXPECT_TRUE(fixed.totals.rung_polls.empty());
}

}  // namespace
}  // namespace vab
