// Protocol conformance suite for the slotted anti-collision MAC and the MCS
// command flow.
//
// Everything here is scripted: the Q-adapter is stepped outcome by outcome
// against hand-computed Qfp values, capture arbitration is pinned case by
// case, slotted inventory rounds are replayed from their recorded traces,
// and the reader<->node MCS handshake is driven frame by frame. The fleet
// seam closes the file: the SINR contention penalty and the slotted MAC are
// mutually exclusive (regression for the double-charge bug), the legacy
// digest ignores the new code paths, and slotted fleet runs stay
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/anticollision/capture.hpp"
#include "net/anticollision/slotted.hpp"
#include "net/frame.hpp"
#include "net/inventory.hpp"
#include "net/mac.hpp"
#include "net/mcs/mcs.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using net::anticollision::CaptureConfig;
using net::anticollision::Contender;
using net::anticollision::QAdapter;
using net::anticollision::QConfig;
using net::anticollision::resolve_capture;
using net::anticollision::run_slotted_inventory;
using net::anticollision::SlotKind;
using net::anticollision::SlottedResult;
using net::mcs::McsLadder;

const McsLadder& ladder() {
  static const McsLadder* l = new McsLadder(McsLadder::default_ladder());
  return *l;
}

// ---------------------------------------------------------------------------
// 1. QAdapter: scripted floating-Q traces
// ---------------------------------------------------------------------------

TEST(QAdapterConformance, StartsAtClampedQInit) {
  QConfig cfg;
  cfg.q_init = 4.0;
  EXPECT_EQ(QAdapter(cfg).q(), 4u);
  EXPECT_EQ(QAdapter(cfg).frame_slots(), 16u);
  cfg.q_init = 99.0;
  EXPECT_EQ(QAdapter(cfg).q(), static_cast<std::uint8_t>(cfg.q_max));
  cfg.q_init = -3.0;
  EXPECT_EQ(QAdapter(cfg).q(), 0u);
}

TEST(QAdapterConformance, ScriptedOutcomeTraceMatchesHandComputedQfp) {
  QConfig cfg;
  cfg.q_init = 4.0;
  cfg.c_up = 0.35;
  cfg.c_down = 0.25;
  QAdapter q(cfg);
  // Replay a hand-written reader trace and check Qfp after every slot with
  // the exact same floating-point operations.
  const struct {
    SlotKind kind;
    double expect_qfp;
  } script[] = {
      {SlotKind::kCollision, 4.0 + 0.35},
      {SlotKind::kCollision, 4.0 + 0.35 + 0.35},
      {SlotKind::kSuccess, 4.0 + 0.35 + 0.35},
      {SlotKind::kIdle, 4.0 + 0.35 + 0.35 - 0.25},
      {SlotKind::kCapture, 4.0 + 0.35 + 0.35 - 0.25},
      {SlotKind::kIdle, 4.0 + 0.35 + 0.35 - 0.25 - 0.25},
  };
  for (const auto& step : script) {
    q.on_slot(step.kind);
    EXPECT_DOUBLE_EQ(q.qfp(), step.expect_qfp);
  }
}

TEST(QAdapterConformance, QfpClampsAtConfiguredBounds) {
  QConfig cfg;
  cfg.q_init = 0.5;
  cfg.q_min = 0.0;
  cfg.q_max = 2.0;
  QAdapter q(cfg);
  for (int i = 0; i < 50; ++i) q.on_slot(SlotKind::kIdle);
  EXPECT_DOUBLE_EQ(q.qfp(), 0.0);
  EXPECT_EQ(q.frame_slots(), 1u);
  for (int i = 0; i < 50; ++i) q.on_slot(SlotKind::kCollision);
  EXPECT_DOUBLE_EQ(q.qfp(), 2.0);
  EXPECT_EQ(q.frame_slots(), 4u);
}

TEST(QAdapterConformance, IntegerQRoundsToNearest) {
  QConfig cfg;
  cfg.q_init = 4.0;
  cfg.c_up = 0.3;
  QAdapter q(cfg);
  q.on_slot(SlotKind::kCollision);  // 4.3 -> q=4
  EXPECT_EQ(q.q(), 4u);
  q.on_slot(SlotKind::kCollision);  // 4.6 -> q=5
  EXPECT_EQ(q.q(), 5u);
  EXPECT_EQ(q.frame_slots(), 32u);
}

// ---------------------------------------------------------------------------
// 2. Capture arbitration, case by case
// ---------------------------------------------------------------------------

TEST(CaptureConformance, EmptySlotHasNoWinner) {
  EXPECT_FALSE(resolve_capture({}, {}).has_value());
}

TEST(CaptureConformance, SoleOccupantWinsUnlessSilent) {
  const auto win = resolve_capture({2.5}, {});
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 0u);
  EXPECT_FALSE(resolve_capture({0.0}, {}).has_value());
}

TEST(CaptureConformance, DominantReplyCapturesAboveMargin) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // SINR = 10 / 1.0 = 10 dB > 6 dB: index 1 captures.
  const auto win = resolve_capture({1.0, 10.0}, cfg);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 1u);
}

TEST(CaptureConformance, BelowMarginCollides) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // SINR = 3/1 ~= 4.8 dB < 6 dB: jammed.
  EXPECT_FALSE(resolve_capture({1.0, 3.0}, cfg).has_value());
}

TEST(CaptureConformance, EqualPowersAlwaysJam) {
  CaptureConfig cfg;
  cfg.margin_db = 0.0;  // even a zero margin cannot rescue a tie
  EXPECT_FALSE(resolve_capture({5.0, 5.0}, cfg).has_value());
  EXPECT_FALSE(resolve_capture({5.0, 5.0, 0.1}, cfg).has_value());
}

TEST(CaptureConformance, NoiseErodesTheMargin) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  cfg.noise_power_rel = 0.0;
  ASSERT_TRUE(resolve_capture({1.0, 10.0}, cfg).has_value());
  cfg.noise_power_rel = 2.0;  // SINR = 10/(1+2) ~= 5.2 dB < 6 dB
  EXPECT_FALSE(resolve_capture({1.0, 10.0}, cfg).has_value());
}

TEST(CaptureConformance, ThreeWayNearFarCapture) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // 40 vs (4 + 3): SINR ~= 7.6 dB — the near node rides over two far ones.
  const auto win = resolve_capture({4.0, 40.0, 3.0}, cfg);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 1u);
}

// ---------------------------------------------------------------------------
// 3. Slotted inventory rounds
// ---------------------------------------------------------------------------

std::vector<Contender> uniform_population(std::size_t n, double power = 1.0,
                                          double delivery = 1.0) {
  std::vector<Contender> c(n);
  for (std::size_t i = 0; i < n; ++i)
    c[i] = Contender{static_cast<std::uint16_t>(i), power, delivery};
  return c;
}

TEST(SlottedConformance, EmptyPopulationResolvesImmediately) {
  common::Rng rng(1);
  const SlottedResult r = run_slotted_inventory({}, {}, rng);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.slots, 0u);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, ConservationInvariantHoldsEverywhere) {
  // A lossy channel (30% of winning replies fail decode) still completes
  // and conserves. Per seed the two runs' draws diverge after the first
  // lost reply, so the slot cost is compared over the whole grid.
  std::size_t total_slots[2] = {0, 0};
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xABCDull}) {
    for (const std::size_t n : {1u, 5u, 32u, 100u}) {
      for (const std::size_t lossy : {0u, 1u}) {
        common::Rng rng(seed);
        QConfig cfg;
        cfg.max_rounds = 256;
        const double delivery = lossy ? 0.7 : 1.0;
        const SlottedResult r =
            run_slotted_inventory(uniform_population(n, 1.0, delivery), cfg, rng);
        EXPECT_TRUE(r.conserves()) << "seed " << seed << " n " << n;
        EXPECT_TRUE(r.complete) << "seed " << seed << " n " << n;
        EXPECT_EQ(r.resolved.size(), r.success_slots + r.capture_slots)
            << "seed " << seed << " n " << n;
        total_slots[lossy] += r.slots;
      }
    }
  }
  EXPECT_GE(total_slots[1], total_slots[0]);
}

TEST(SlottedConformance, CleanChannelResolvesEveryContenderExactlyOnce) {
  common::Rng rng(7);
  const std::size_t n = 48;
  const SlottedResult r = run_slotted_inventory(uniform_population(n), {}, rng);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.resolved.size(), n);
  const std::set<std::uint16_t> unique(r.resolved.begin(), r.resolved.end());
  EXPECT_EQ(unique.size(), n);  // no double-resolution
  EXPECT_EQ(r.decode_failures, 0u);
  EXPECT_EQ(r.capture_slots, 0u);  // equal powers cannot capture

  // A lone contender at the EXT-4 start (Q=2, four slots): QueryAdjust may
  // cut the first frame after three idles, but the two-slot frame that
  // follows always holds it.
  QConfig small;
  small.q_init = 2.0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    common::Rng lone_rng(seed);
    const SlottedResult lone =
        run_slotted_inventory(uniform_population(1), small, lone_rng);
    EXPECT_TRUE(lone.complete) << "seed " << seed;
    EXPECT_LE(lone.rounds, 2u) << "seed " << seed;
  }
}

TEST(SlottedConformance, DeterministicAtFixedSeedIncludingTrace) {
  QConfig cfg;
  cfg.record_trace = true;
  auto run = [&cfg] {
    common::Rng rng(0x51077ED);
    return run_slotted_inventory(uniform_population(20), cfg, rng);
  };
  const SlottedResult a = run();
  const SlottedResult b = run();
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.final_qfp, b.final_qfp);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].round, b.trace[i].round);
    EXPECT_EQ(a.trace[i].slot, b.trace[i].slot);
    EXPECT_EQ(a.trace[i].kind, b.trace[i].kind);
    EXPECT_EQ(a.trace[i].occupants, b.trace[i].occupants);
    EXPECT_EQ(a.trace[i].winner, b.trace[i].winner);
  }
}

TEST(SlottedConformance, TraceCoversEverySlotAndMatchesTheCounters) {
  QConfig cfg;
  cfg.record_trace = true;
  common::Rng rng(0x7ACE);
  const SlottedResult r = run_slotted_inventory(uniform_population(24), cfg, rng);
  ASSERT_EQ(r.trace.size(), r.slots);
  std::size_t idle = 0, success = 0, collision = 0, capture = 0;
  for (const auto& rec : r.trace) {
    switch (rec.kind) {
      case SlotKind::kIdle:
        ++idle;
        EXPECT_EQ(rec.occupants, 0u);
        break;
      case SlotKind::kSuccess:
        ++success;
        EXPECT_EQ(rec.occupants, 1u);
        break;
      case SlotKind::kCollision:
        ++collision;
        EXPECT_GE(rec.occupants, 1u);  // lone occupant can still fail decode
        break;
      case SlotKind::kCapture:
        ++capture;
        EXPECT_GE(rec.occupants, 2u);
        break;
    }
  }
  EXPECT_EQ(idle, r.idle_slots);
  EXPECT_EQ(success, r.success_slots);
  EXPECT_EQ(collision, r.collision_slots);
  EXPECT_EQ(capture, r.capture_slots);
}

TEST(SlottedConformance, TraceIsOffByDefault) {
  common::Rng rng(3);
  const SlottedResult r = run_slotted_inventory(uniform_population(8), {}, rng);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_GT(r.slots, 0u);
}

TEST(SlottedConformance, EfficiencyLandsNearOneOverE) {
  // Framed slotted Aloha with converged Q runs at ~36.8% slot efficiency;
  // floating-Q tracking keeps a large population inside a generous band.
  common::Rng rng(0xEFF1);
  const std::size_t n = 200;
  QConfig cfg;
  cfg.q_init = 8.0;  // 256 slots: near-optimal for 200 contenders
  cfg.max_rounds = 256;
  const SlottedResult r = run_slotted_inventory(uniform_population(n), cfg, rng);
  ASSERT_TRUE(r.complete);
  const double eff =
      static_cast<double>(r.resolved.size()) / static_cast<double>(r.slots);
  EXPECT_GT(eff, 0.20);
  EXPECT_LT(eff, 0.55);
}

TEST(SlottedConformance, QGrowsTowardThePopulation) {
  // Starting far too small (Q=0: one slot per frame), collisions must push
  // the frame size up toward the contender count before anyone resolves.
  // Qfp decays again as the tail drains (idle slots dominate at the end),
  // so the growth is pinned on the recorded frame sizes, not the final Qfp.
  QConfig cfg;
  cfg.q_init = 0.0;
  cfg.max_rounds = 512;
  cfg.record_trace = true;
  common::Rng rng(0x6E0);
  const SlottedResult r = run_slotted_inventory(uniform_population(64), cfg, rng);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.collision_slots, 0u);
  std::size_t max_frame = 0;
  for (const auto& rec : r.trace) max_frame = std::max(max_frame, rec.slot + 1);
  EXPECT_GE(max_frame, 16u);  // grew from 1 slot under collision pressure
}

TEST(SlottedConformance, PowerSpreadEnablesCapture) {
  // Exponentially spread powers: near-far differences > 6 dB are common, so
  // some collided slots must resolve by capture.
  std::vector<Contender> pop;
  for (std::size_t i = 0; i < 40; ++i)
    pop.push_back({static_cast<std::uint16_t>(i),
                   std::pow(10.0, static_cast<double>(i % 8) * 0.4), 1.0});
  QConfig cfg;
  cfg.q_init = 2.0;  // undersized frames force collisions
  cfg.max_rounds = 256;
  common::Rng rng(0xCAB);
  const SlottedResult r = run_slotted_inventory(pop, cfg, rng);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.capture_slots, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, DecodeFailureCountsAsCollisionAndNothingResolves) {
  QConfig cfg;
  cfg.max_rounds = 8;
  common::Rng rng(9);
  const SlottedResult r =
      run_slotted_inventory(uniform_population(10, 1.0, 0.0), cfg, rng);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.resolved.empty());
  EXPECT_GT(r.decode_failures, 0u);
  EXPECT_EQ(r.success_slots, 0u);
  EXPECT_EQ(r.capture_slots, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, MaxRoundsBoundsTheRun) {
  QConfig cfg;
  cfg.max_rounds = 1;
  cfg.q_init = 0.0;  // one 1-slot frame for 50 contenders
  common::Rng rng(4);
  const SlottedResult r = run_slotted_inventory(uniform_population(50), cfg, rng);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.slots, 1u);
}

// ---------------------------------------------------------------------------
// 4. Reader <-> node MCS command flow, frame by frame
// ---------------------------------------------------------------------------

TEST(McsCommandConformance, QueryCarriesTheCommandedRungByte) {
  net::ReaderMac reader{net::MacTiming{}};
  const net::Frame plain = reader.make_query(5);
  EXPECT_TRUE(plain.payload.empty());  // fixed-rate wire format untouched

  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 2;
  reader.enable_mcs(ladder(), adapt);
  const net::Frame q = reader.make_query(5);
  ASSERT_EQ(q.payload.size(), 1u);
  EXPECT_EQ(q.payload[0], 2u);
}

TEST(McsCommandConformance, NodeReconfiguresOnlyOnRungChange) {
  net::NodeMac node(5, net::MacTiming{});
  node.enable_mcs(ladder());
  EXPECT_EQ(node.current_rung(), McsLadder::kPaperRung);
  EXPECT_EQ(node.reconfigures(), 0u);  // opting in is not a reconfiguration

  net::ReaderMac reader{net::MacTiming{}};
  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 1;
  reader.enable_mcs(ladder(), adapt);
  const net::SensorReading reading{11.0, 101.3, 2900};

  auto resp = node.on_downlink(reader.make_query(5), reading);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(node.current_rung(), 1u);
  EXPECT_EQ(node.reconfigures(), 1u);
  EXPECT_EQ(node.phy_config().uplink_code, ladder().rung(1).code);
  EXPECT_EQ(node.phy_config().bitrate_bps, ladder().rung(1).bitrate_bps);

  // Same commanded rung again: no spurious reconfiguration.
  (void)node.on_downlink(reader.make_query(5), reading);
  EXPECT_EQ(node.reconfigures(), 1u);
}

TEST(McsCommandConformance, NodeWithoutOptInIgnoresTheRungByte) {
  net::NodeMac node(5, net::MacTiming{});
  net::ReaderMac reader{net::MacTiming{}};
  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 1;
  reader.enable_mcs(ladder(), adapt);
  const auto resp = node.on_downlink(reader.make_query(5), {11.0, 101.3, 2900});
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(node.mcs_enabled());
  EXPECT_EQ(node.current_rung(), 0u);
  EXPECT_EQ(node.reconfigures(), 0u);
}

TEST(McsCommandConformance, LostAckRetransmitsSameSeqAtTheCommandedRung) {
  net::NodeMac node(9, net::MacTiming{});
  node.enable_mcs(ladder());
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  const net::SensorReading reading{11.0, 101.3, 2900};

  const auto first = node.on_downlink(reader.make_query(9), reading);
  ASSERT_TRUE(first.has_value());
  const std::uint8_t seq = first->frame.seq;
  EXPECT_TRUE(node.awaiting_ack());

  // ACK lost; the next MCS-carrying query elicits the same seq again.
  const auto retry = node.on_downlink(reader.make_query(9), reading);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->frame.seq, seq);
  EXPECT_EQ(reader.on_report(first->frame), net::ReaderMac::UplinkEvent::kDelivered);
  EXPECT_EQ(reader.on_report(retry->frame), net::ReaderMac::UplinkEvent::kDuplicate);
}

TEST(McsCommandConformance, ObserveLinkWalksTheRungAndRecordsResidency) {
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  for (int i = 0; i < 60; ++i)
    reader.observe_link(9, common::SnrDb{30.0}, true);
  EXPECT_EQ(reader.rung_of(9), ladder().size() - 1);
  EXPECT_GT(reader.mcs_steps_up(), 0u);
  EXPECT_EQ(reader.mcs_steps_down(), 0u);
  std::size_t residency = 0;
  for (const auto& [rung, polls] : reader.rung_polls()) residency += polls;
  EXPECT_EQ(residency, 60u);
}

TEST(McsCommandConformance, DemoteResetsTheRateController) {
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  for (int i = 0; i < 60; ++i)
    reader.observe_link(9, common::SnrDb{30.0}, true);
  ASSERT_EQ(reader.rung_of(9), ladder().size() - 1);
  reader.demote(9);
  // Re-discovery starts the controller over at the configured start rung.
  EXPECT_EQ(reader.rung_of(9), static_cast<std::size_t>(McsLadder::kPaperRung));
}

// ---------------------------------------------------------------------------
// 5. The fleet seam: penalty/slotted exclusivity and digest stability
// ---------------------------------------------------------------------------

bytes report_wire(std::uint8_t addr, std::uint8_t seq) {
  net::Frame f;
  f.addr = addr;
  f.type = net::FrameType::kSensorReport;
  f.seq = seq;
  f.payload = net::encode_reading({12.5, 101.3, 2900});
  return net::serialize(f);
}

TEST(FleetSeamConformance, SlottedModeWithholdsTheSinrPenalty) {
  // Regression for the double-charge seam: with the slotted MAC resolving
  // contention per slot, a contended window's uplink draws must be
  // *bit-identical* to an uncontended window's — the flat penalty may not
  // also be applied.
  sim::Scenario base = sim::vab_river_scenario();
  base.env.fading_sigma_db = 0.0;
  sim::fleet::FidelityPolicy policy;
  policy.mode = sim::fleet::FidelityMode::kBudgetOnly;

  auto run = [&](bool slotted, std::size_t contenders) {
    sim::fleet::FleetLinkTransport tp(base, policy, common::Db{3.0}, 96);
    tp.set_slotted_mode(slotted);
    common::Rng rng(0xC0117);
    tp.begin_window({{7, 420.0, common::SnrDb{0.0}}}, rng.child(1));  // marginal range
    tp.set_contention(contenders);
    common::Rng poll_rng = rng.child(2);
    std::size_t delivered = 0;
    for (int i = 0; i < 200; ++i) {
      bytes wire = report_wire(0, static_cast<std::uint8_t>(i));
      if (tp.uplink_delivered(0, wire, poll_rng)) ++delivered;
    }
    return std::pair<std::size_t, std::size_t>{delivered,
                                               tp.tally().contended_polls};
  };

  const auto [clean, clean_contended] = run(false, 0);
  const auto [penalized, pen_contended] = run(false, 4);
  const auto [slotted, slot_contended] = run(true, 4);

  EXPECT_EQ(clean_contended, 0u);
  EXPECT_EQ(pen_contended, 200u);
  EXPECT_EQ(slot_contended, 200u);  // contention still tallied in slotted mode
  EXPECT_EQ(slotted, clean);        // ...but the penalty is withheld
  EXPECT_LT(penalized, clean);      // and it genuinely bites in penalty mode
}

sim::fleet::FleetConfig dense_config(sim::fleet::MacMode mode) {
  sim::fleet::FleetConfig cfg;
  cfg.scenario = sim::vab_river_scenario();
  cfg.scenario.env.fading_sigma_db = 0.0;
  cfg.n_readers = 4;
  cfg.n_nodes = 72;
  cfg.area_m = 900.0;  // typical link 300..550 m: inside the waterfall band
  cfg.max_link_range_m = 550.0;
  cfg.interference_range_m = 5000.0;  // every reader contends with every other
  cfg.contention_penalty_db = 4.0;
  cfg.inventory.max_polls = 64;  // finite poll budget per address window
  cfg.mac_mode = mode;
  cfg.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  return cfg;
}

TEST(FleetSeamConformance, SlottedMacBeatsSinrPenaltyDeliveryWhenDense) {
  const auto penalty =
      run_fleet(dense_config(sim::fleet::MacMode::kSinrPenalty), common::Rng(11));
  const auto slotted =
      run_fleet(dense_config(sim::fleet::MacMode::kSlotted), common::Rng(11));
  ASSERT_EQ(penalty.assigned, slotted.assigned);
  ASSERT_GT(penalty.contended_windows, 0u);
  // The flat penalty stacks 4 dB per contending reader and pushes marginal
  // links under their waterfall; per-slot resolution does not.
  EXPECT_GT(slotted.delivered, penalty.delivered);
  // Slotted accounting is live and conserved.
  EXPECT_GT(slotted.slot_total, 0u);
  EXPECT_EQ(slotted.slot_idle + slotted.slot_success + slotted.slot_collision +
                slotted.slot_capture,
            slotted.slot_total);
  // ...and completely absent from the historical model.
  EXPECT_EQ(penalty.slot_total, 0u);
  EXPECT_EQ(penalty.slotted_unresolved, 0u);
}

TEST(FleetSeamConformance, SlottedChargesAcquisitionAirtime) {
  const auto slotted =
      run_fleet(dense_config(sim::fleet::MacMode::kSlotted), common::Rng(11));
  const auto penalty =
      run_fleet(dense_config(sim::fleet::MacMode::kSinrPenalty), common::Rng(11));
  // Slot acquisition is not free: the slotted run pays airtime for every
  // announced slot on top of the ARQ exchanges.
  EXPECT_GT(slotted.airtime_s, 0.0);
  EXPECT_GT(slotted.slot_total, 0u);
  (void)penalty;
}

class FleetThreadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VAB_THREADS");
    common::set_thread_count(0);
  }
  void TearDown() override { common::set_thread_count(0); }
};

TEST_F(FleetThreadTest, SlottedReplicateDigestsBitIdenticalAcrossThreadCounts) {
  auto digests = [](unsigned threads) {
    common::set_thread_count(threads);
    sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSlotted);
    cfg.n_nodes = 48;
    const auto runs = run_fleet_replicates(cfg, 6, common::Rng(0xD16E57));
    common::set_thread_count(0);
    std::vector<std::uint64_t> out;
    for (const auto& r : runs) out.push_back(r.digest);
    return out;
  };
  const auto serial = digests(1);
  EXPECT_EQ(digests(2), serial);
  EXPECT_EQ(digests(8), serial);
}

TEST_F(FleetThreadTest, McsLadderFleetDigestsBitIdenticalAcrossThreadCounts) {
  auto digests = [](unsigned threads) {
    common::set_thread_count(threads);
    sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSlotted);
    cfg.n_nodes = 48;
    cfg.inventory.ladder = &ladder();
    const auto runs = run_fleet_replicates(cfg, 6, common::Rng(0xAD0BE));
    common::set_thread_count(0);
    std::vector<std::uint64_t> out;
    for (const auto& r : runs) out.push_back(r.digest);
    return out;
  };
  const auto serial = digests(1);
  EXPECT_EQ(digests(2), serial);
  EXPECT_EQ(digests(8), serial);
}

TEST(FleetSeamConformance, LegacyModeReportsZeroMcsAndSlotActivity) {
  sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSinrPenalty);
  cfg.n_nodes = 24;
  const auto r = run_fleet(cfg, common::Rng(21));
  EXPECT_EQ(r.slot_total, 0u);
  EXPECT_EQ(r.mcs_steps_up, 0u);
  EXPECT_EQ(r.mcs_steps_down, 0u);
  EXPECT_EQ(r.reconfigures, 0u);
}

TEST(FleetSeamConformance, AdaptiveFleetRunReportsMcsActivity) {
  sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSinrPenalty);
  cfg.n_nodes = 24;
  cfg.area_m = 400.0;  // short, clean links: MCS activity, full delivery
  cfg.interference_range_m = 0.0;  // isolate the MCS effect from contention
  cfg.inventory.ladder = &ladder();
  // Start below the nodes' power-on rung so the first query of every link
  // provably commands a reconfiguration even when windows are one poll long.
  cfg.inventory.adapt.start_rung = 1;
  const auto r = run_fleet(cfg, common::Rng(21));
  EXPECT_GT(r.reconfigures + r.mcs_steps_up + r.mcs_steps_down, 0u);
  EXPECT_TRUE(r.complete);
}

}  // namespace
}  // namespace vab
