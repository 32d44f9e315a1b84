// Fleet simulation core: event queue ordering, spatial partition
// correctness, fidelity-switching transport behavior, and randomized fleet
// topologies (fuzz) that must never crash, deadlock, or violate the
// conservation counters. The whole file runs under the ASan/UBSan and TSan
// CI jobs (the Fleet test regex is part of the TSan suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/mcs/mcs.hpp"
#include "phy/ber.hpp"
#include "sim/fleet/event_queue.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/medium.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using sim::fleet::Event;
using sim::fleet::EventQueue;
using sim::fleet::Position;
using sim::fleet::SpatialGrid;

// ---- Event queue / virtual clock ------------------------------------------

TEST(FleetEventQueue, PopsInTimeOrderFifoAmongTies) {
  EventQueue q;
  const double times[] = {5.0, 1.0, 5.0, 3.0, 1.0, 5.0};
  for (std::uint32_t i = 0; i < 6; ++i) q.push(Event{times[i], i, 0, 0});
  std::vector<std::uint32_t> order;
  while (auto ev = q.pop()) order.push_back(ev->entity);
  // Equal timestamps pop in push order: 1.0s -> {1, 4}, 5.0s -> {0, 2, 5}.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 4, 3, 0, 2, 5}));
}

TEST(FleetEventQueue, PopAdvancesClockMonotonically) {
  EventQueue q;
  common::Rng rng(7);
  for (std::uint32_t i = 0; i < 256; ++i)
    q.push(Event{rng.uniform(0.0, 10.0), i, 0, 0});
  double prev = -1.0;
  while (auto ev = q.pop()) {
    EXPECT_GE(ev->time_s, prev);
    EXPECT_EQ(q.now_s(), ev->time_s);
    prev = ev->time_s;
  }
  EXPECT_EQ(q.pushed(), 256u);
}

TEST(FleetEventQueue, RejectsCausalityViolations) {
  EventQueue q;
  q.push(Event{3.0, 0, 0, 0});
  ASSERT_TRUE(q.pop().has_value());  // clock is now 3.0
  EXPECT_THROW(q.push(Event{2.0, 0, 0, 0}), std::logic_error);
  EXPECT_THROW(q.push(Event{std::nan(""), 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(q.push(Event{std::numeric_limits<double>::infinity(), 0, 0, 0}),
               std::invalid_argument);
  q.push(Event{3.0, 1, 0, 0});  // re-scheduling at "now" is legal
  EXPECT_EQ(q.size(), 1u);
}

// ---- Spatial partition -----------------------------------------------------

TEST(FleetMedium, GridMatchesBruteForce) {
  common::Rng rng(11);
  std::vector<Position> pts(500);
  for (auto& p : pts) p = {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
  const SpatialGrid grid(pts, common::Meters{37.0});
  std::vector<std::uint32_t> got;
  for (int probe = 0; probe < 20; ++probe) {
    const Position c{rng.uniform(-20.0, 420.0), rng.uniform(-20.0, 420.0)};
    const double r = rng.uniform(0.0, 150.0);
    grid.query(c, common::Meters{r}, got);
    std::vector<std::uint32_t> want;
    for (std::uint32_t id = 0; id < pts.size(); ++id)
      if (sim::fleet::distance_m(pts[id], c) <= r) want.push_back(id);
    // Results come cell-major, not ascending: compare as sets.
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicate id, probe " << probe;
    EXPECT_EQ(got, want) << "probe " << probe;
  }
}

TEST(FleetMedium, DegenerateGeometries) {
  // All points coincident: one cell, zero-radius query still finds them.
  std::vector<Position> same(17, Position{3.0, -2.0});
  const SpatialGrid grid(same, common::Meters{50.0});
  std::vector<std::uint32_t> out;
  grid.query({3.0, -2.0}, common::Meters{0.0}, out);
  EXPECT_EQ(out.size(), 17u);
  grid.query({100.0, 100.0}, common::Meters{5.0}, out);
  EXPECT_TRUE(out.empty());

  // Empty grid and non-positive cell size must not divide by zero.
  const SpatialGrid empty({}, common::Meters{-1.0});
  empty.query({0.0, 0.0}, common::Meters{10.0}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.cell_count(), 1u);
}

// ---- Fidelity-switching transport ------------------------------------------

bytes report_wire(std::uint8_t addr, std::uint8_t seq) {
  net::Frame f;
  f.addr = addr;
  f.type = net::FrameType::kSensorReport;
  f.seq = seq;
  f.payload = net::encode_reading({12.5, 101.3, 2900});
  return net::serialize(f);
}

TEST(FleetTransport, DeliveryProbMonotoneInSnrAndBits) {
  const sim::fleet::FleetLinkTransport tp(sim::vab_river_scenario(), {},
                                          common::Db{3.0}, 96);
  const net::mcs::McsEntry& curve = tp.uplink_entry();
  double prev = 0.0;
  for (double snr = -10.0; snr <= 20.0; snr += 1.0) {
    const double p = curve.frame_delivery_prob(common::SnrDb{snr}, 96);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(curve.frame_delivery_prob(common::SnrDb{5.0}, 64),
            curve.frame_delivery_prob(common::SnrDb{5.0}, 1024));
}

TEST(FleetTransport, WaterfallSitsAtHalfDelivery) {
  const sim::Scenario base = sim::vab_river_scenario();
  const sim::fleet::FleetLinkTransport tp(base, {}, common::Db{3.0}, 96);
  const net::mcs::McsEntry& curve = tp.uplink_entry();
  const double w = tp.waterfall_snr_db().raw();
  EXPECT_NEAR(curve.frame_delivery_prob(common::SnrDb{w}, 96), 0.5, 1e-6);
  EXPECT_GT(curve.frame_delivery_prob(common::SnrDb{w + 6.0}, 96), 0.99);
  EXPECT_LT(curve.frame_delivery_prob(common::SnrDb{w - 6.0}, 96), 0.01);
}

TEST(FleetTransport, CodedScenarioWaterfallFollowsItsFecCurve) {
  // A scenario that decodes with FEC must also escalate around the coded
  // waterfall, not the uncoded FM0 one.
  sim::Scenario coded = sim::vab_river_scenario();
  coded.fec.enable = true;
  const sim::fleet::FleetLinkTransport tp(coded, {}, common::Db{3.0}, 96);
  const sim::fleet::FleetLinkTransport uncoded(sim::vab_river_scenario(), {},
                                               common::Db{3.0}, 96);
  const net::mcs::McsEntry fec_fm0{"fm0-500-fec", 500.0, phy::UplinkCode::kFm0, true};
  EXPECT_EQ(tp.waterfall_snr_db().raw(), fec_fm0.snr_for_delivery(0.5, 96).raw());
  EXPECT_LE(tp.waterfall_snr_db().raw(), uncoded.waterfall_snr_db().raw() - 2.0);
}

TEST(FleetTransport, BudgetDeliveryUsesTheScenariosOwnChipSnr) {
  // At FM0/1000 the budget's chip SNR is 3 dB below the reference scale;
  // converting it and evaluating the FM0/1000 curve must land back on the
  // FM0 curve at the scenario's own chip SNR.
  sim::Scenario s = sim::vab_river_scenario();
  s.phy.bitrate_bps = 1000.0;
  sim::fleet::FleetLinkTransport tp(s, {}, common::Db{3.0}, 96);
  std::vector<sim::fleet::FleetLinkTransport::LinkInfo> links;
  for (std::uint32_t k = 0; k < 32; ++k)
    links.push_back({k, 25.0 + 25.0 * static_cast<double>(k), common::SnrDb{0.0}});
  tp.begin_window(links, common::Rng(5));
  const sim::LinkBudget lb(s);
  std::size_t waterfall_links = 0;
  for (const auto& l : tp.links()) {
    const double chip_snr = lb.evaluate(common::Meters{l.range_m}).snr_chip_db.raw();
    for (const std::size_t bits : {48u, 96u, 176u}) {
      const double want =
          std::pow(1.0 - phy::ber_fm0(std::pow(10.0, chip_snr / 10.0)),
                   static_cast<double>(bits));
      const double got = tp.uplink_entry().frame_delivery_prob(l.snr_db, bits);
      EXPECT_NEAR(got, want, 1e-12) << "range " << l.range_m << " bits " << bits;
      if (bits == 96 && want > 0.05 && want < 0.95) ++waterfall_links;
    }
  }
  EXPECT_GT(waterfall_links, 0u);  // the sweep crosses the waterfall
}

TEST(FleetTransport, AdaptivePolicyEscalatesMarginalLinksUpToCap) {
  sim::Scenario base = sim::vab_river_scenario();
  base.env.fading_sigma_db = 0.0;
  sim::fleet::FidelityPolicy policy;
  policy.escalate_margin_db = 3.0;
  policy.max_waveform_polls = 2;

  // Find a range whose budget SNR sits inside the escalation margin.
  sim::fleet::FleetLinkTransport probe(base, policy, common::Db{3.0}, 96);
  const sim::LinkBudget lb(base);
  double marginal_range = 0.0;
  for (double r = 50.0; r <= 800.0; r += 5.0) {
    if (std::abs(lb.evaluate(common::Meters{r}).snr_chip_db.raw() -
                 probe.waterfall_snr_db().raw()) <=
        policy.escalate_margin_db) {
      marginal_range = r;
      break;
    }
  }
  ASSERT_GT(marginal_range, 0.0);

  sim::fleet::FleetLinkTransport tp(base, policy, common::Db{3.0}, 96);
  common::Rng rng(3);
  tp.begin_window({{7, marginal_range, common::SnrDb{0.0}}}, rng.child(1));
  common::Rng poll_rng = rng.child(2);
  for (int i = 0; i < 5; ++i) {
    bytes wire = report_wire(0, static_cast<std::uint8_t>(i));
    (void)tp.uplink_delivered(0, wire, poll_rng);
  }
  // First two polls escalate (marginal), then the cap forces budget fidelity.
  EXPECT_EQ(tp.tally().waveform_polls, 2u);
  EXPECT_EQ(tp.tally().budget_polls, 3u);
  EXPECT_EQ(tp.tally().waveform_cap_hits, 3u);
  EXPECT_GE(tp.tally().escalations_marginal, 5u);
  EXPECT_EQ(tp.last_fidelity(), sim::fleet::Fidelity::kBudget);
}

TEST(FleetTransport, BudgetOnlyModeNeverEscalates) {
  sim::Scenario base = sim::vab_river_scenario();
  sim::fleet::FidelityPolicy policy;
  policy.mode = sim::fleet::FidelityMode::kBudgetOnly;
  sim::fleet::FleetLinkTransport tp(base, policy, common::Db{3.0}, 96);
  common::Rng rng(5);
  tp.begin_window({{1, 100.0, common::SnrDb{0.0}}}, rng.child(0));
  tp.set_contention(4);  // contention alone must not force a waveform poll
  common::Rng poll_rng = rng.child(1);
  for (int i = 0; i < 8; ++i) {
    bytes wire = report_wire(0, static_cast<std::uint8_t>(i));
    (void)tp.uplink_delivered(0, wire, poll_rng);
  }
  EXPECT_EQ(tp.tally().waveform_polls, 0u);
  EXPECT_EQ(tp.tally().budget_polls, 8u);
  EXPECT_EQ(tp.tally().contended_polls, 8u);
}

TEST(FleetTransport, PollOutsideWindowThrows) {
  const sim::Scenario base = sim::vab_river_scenario();
  sim::fleet::FleetLinkTransport tp(base, {}, common::Db{3.0}, 96);
  common::Rng rng(9);
  tp.begin_window({{0, 50.0, common::SnrDb{0.0}}}, rng.child(0));
  bytes wire = report_wire(3, 0);
  EXPECT_THROW((void)tp.uplink_delivered(3, wire, rng), std::out_of_range);
}

// ---- Fleet runs: edge topologies and conservation --------------------------

sim::fleet::FleetConfig budget_fleet(std::size_t nodes, std::size_t readers,
                                     double area) {
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_river_scenario();
  fc.n_nodes = nodes;
  fc.n_readers = readers;
  fc.area_m = area;
  fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  return fc;
}

void expect_conservation(const sim::fleet::FleetResult& r) {
  EXPECT_EQ(r.assigned + r.unreachable, r.nodes);
  EXPECT_LE(r.delivered, r.assigned);
  EXPECT_EQ(r.complete, r.delivered == r.assigned);
  EXPECT_GE(r.polls, r.delivered);
  EXPECT_LE(r.acks_sent, r.polls);
  EXPECT_EQ(r.events, r.windows);
  EXPECT_LE(r.tally.budget_polls + r.tally.waveform_polls, r.polls);
  EXPECT_GE(r.makespan_s, 0.0);
  EXPECT_GE(r.airtime_s, 0.0);
}

TEST(FleetRun, SingleNodeFleetCompletes) {
  const common::Rng rng(21);
  const auto r = sim::fleet::run_fleet(budget_fleet(1, 1, 50.0), rng);
  expect_conservation(r);
  EXPECT_EQ(r.assigned, 1u);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.windows, 1u);
  EXPECT_TRUE(r.complete);
}

TEST(FleetRun, ReaderOnlyFleetIsEmptyButValid) {
  const common::Rng rng(22);
  const auto r = sim::fleet::run_fleet(budget_fleet(0, 3, 200.0), rng);
  expect_conservation(r);
  EXPECT_EQ(r.nodes, 0u);
  EXPECT_EQ(r.events, 0u);
  EXPECT_TRUE(r.complete);  // vacuously: nothing assigned, nothing missing
}

TEST(FleetRun, NodeOnlyFleetIsAllUnreachable) {
  const common::Rng rng(23);
  const auto r = sim::fleet::run_fleet(budget_fleet(50, 0, 200.0), rng);
  expect_conservation(r);
  EXPECT_EQ(r.unreachable, 50u);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.windows, 0u);
}

TEST(FleetRun, OverlappingNodesSplitIntoAddressWindows) {
  // 300 nodes crammed into a 5 m square around one reader: every link is
  // near-zero range (clamped to 1 m) and the address space must recycle.
  const common::Rng rng(24);
  const auto r = sim::fleet::run_fleet(budget_fleet(300, 1, 5.0), rng);
  expect_conservation(r);
  EXPECT_EQ(r.assigned, 300u);
  EXPECT_EQ(r.windows,
            (300 + sim::fleet::kWindowAddrs - 1) / sim::fleet::kWindowAddrs);
  EXPECT_TRUE(r.complete);
}

TEST(FleetRun, RerunWithSameSeedIsBitIdentical) {
  const sim::fleet::FleetConfig fc = budget_fleet(400, 4, 600.0);
  const common::Rng rng(25);
  const auto a = sim::fleet::run_fleet(fc, rng);
  const auto b = sim::fleet::run_fleet(fc, rng);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.polls, b.polls);
  const auto c = sim::fleet::run_fleet(fc, common::Rng(26));
  EXPECT_NE(a.digest, c.digest) << "digest ignores the seed";
}

// ---- Slotted acquisition vs the SINR penalty ------------------------------
//
// With the slotted engine's round cap out of the way, framed-Aloha
// acquisition resolves every contender and both contention models deliver
// the same nodes. Replicate 0 (Rng(1).child(0)) at budget fidelity delivers
// 3,201 nodes at the F2 geometry and 54,492 at the fleet_budget geometry.
// At the default QConfig::max_rounds = 64, kSlotted delivers only 2,119 and
// 31,909: run_slotted_inventory counts every QueryAdjust-cancelled frame as
// a round, so the cap ends acquisition before contention is resolved. The
// default cap stays until the EXT-6 digests are re-pinned with its fix.
void expect_uncapped_slotted_matches_penalty(sim::fleet::FleetConfig fc) {
  fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  fc.slotted.max_rounds = 4096;
  const common::Rng rng = common::Rng(1).child(0);
  fc.mac_mode = sim::fleet::MacMode::kSinrPenalty;
  const auto penalty = sim::fleet::run_fleet(fc, rng);
  fc.mac_mode = sim::fleet::MacMode::kSlotted;
  const auto slotted = sim::fleet::run_fleet(fc, rng);
  expect_conservation(penalty);
  expect_conservation(slotted);
  EXPECT_GT(penalty.delivered, 0u);
  EXPECT_EQ(slotted.slotted_unresolved, 0u);
  EXPECT_EQ(slotted.delivered, penalty.delivered);
}

TEST(FleetSlotted, UncappedAcquisitionDeliversLikePenaltyAtF2Geometry) {
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_ocean_scenario();
  fc.n_nodes = 5000;
  fc.n_readers = 9;
  fc.area_m = 1500.0;
  expect_uncapped_slotted_matches_penalty(fc);
}

TEST(FleetSlotted, UncappedAcquisitionDeliversLikePenaltyAtFleetBudgetGeometry) {
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_river_scenario();
  fc.n_nodes = 100000;
  fc.n_readers = 100;
  fc.area_m = 6000.0;
  expect_uncapped_slotted_matches_penalty(fc);
}

// Randomized fleet topologies: extreme densities, zero ranges, degenerate
// reader/node counts. Every draw must produce a valid, conserved result.
class FleetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetFuzz, RandomTopologyNeverViolatesConservation) {
  common::Rng gen(GetParam() * 7919 + 1);
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_river_scenario();
  fc.n_nodes = static_cast<std::size_t>(gen.uniform_int(0, 400));
  fc.n_readers = static_cast<std::size_t>(gen.uniform_int(0, 5));
  fc.area_m = gen.uniform(1.0, 1500.0);
  fc.cell_size_m = gen.uniform(-10.0, 120.0);  // <= 0 exercises the fallback
  fc.max_link_range_m = gen.uniform(0.0, 400.0);
  fc.interference_range_m = gen.uniform(0.0, 600.0);
  fc.contention_penalty_db = gen.uniform(0.0, 6.0);
  fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  // Cap the ARQ grind so hopeless (out-of-budget-range) links terminate.
  fc.inventory.max_polls = 2048;

  const common::Rng rng(GetParam());
  const auto r = sim::fleet::run_fleet(fc, rng);
  expect_conservation(r);
  const auto again = sim::fleet::run_fleet(fc, rng);
  EXPECT_EQ(r.digest, again.digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetFuzz, ::testing::Range<std::uint64_t>(0, 12));

// ---- Fleet window series: virtual-time telemetry ----------------------------

TEST(FleetSeries, RecordingDoesNotPerturbTheDigest) {
  sim::fleet::FleetConfig fc = budget_fleet(400, 4, 600.0);
  const common::Rng rng(27);
  const auto plain = sim::fleet::run_fleet(fc, rng);
  fc.record_series = true;
  const auto observed = sim::fleet::run_fleet(fc, rng);
  EXPECT_EQ(plain.digest, observed.digest);
  EXPECT_TRUE(plain.series.empty());
  EXPECT_EQ(observed.series.size(), observed.windows);
}

TEST(FleetSeries, PointsSumToTheRunTotals) {
  sim::fleet::FleetConfig fc = budget_fleet(500, 3, 500.0);
  fc.record_series = true;
  const common::Rng rng(28);
  const auto r = sim::fleet::run_fleet(fc, rng);
  ASSERT_EQ(r.series.size(), r.windows);
  std::size_t delivered = 0, polls = 0, retries = 0, timeouts = 0, links = 0;
  double airtime = 0.0;
  std::uint64_t seq = 0;
  double last_close = 0.0;
  for (const auto& wp : r.series) {
    EXPECT_EQ(wp.seq, seq++);             // dense, in pop order
    EXPECT_GE(wp.t_close_s, last_close - 1e-9);
    last_close = std::max(last_close, wp.t_close_s);
    EXPECT_LT(wp.reader, r.readers);
    EXPECT_LE(wp.delivered, wp.links);
    delivered += wp.delivered;
    polls += wp.polls;
    retries += wp.retries;
    timeouts += wp.timeouts;
    links += wp.links;
    airtime += wp.airtime_s;
  }
  EXPECT_EQ(delivered, r.delivered);
  EXPECT_EQ(polls, r.polls);
  EXPECT_EQ(retries, r.retries);
  EXPECT_EQ(timeouts, r.timeouts);
  EXPECT_EQ(links, r.assigned);  // every assigned node is polled exactly once
  EXPECT_NEAR(airtime, r.airtime_s, 1e-9);
}

TEST(FleetSeriesDeterminism, SeriesIdenticalAcrossRerunsAndThreadCounts) {
  sim::fleet::FleetConfig fc = budget_fleet(600, 4, 700.0);
  fc.record_series = true;
  const common::Rng rng(30);

  auto flatten = [](const std::vector<sim::fleet::FleetResult>& runs) {
    std::vector<std::uint64_t> out;
    for (const auto& r : runs) {
      for (const auto& wp : r.series) {
        out.insert(out.end(),
                   {wp.seq, static_cast<std::uint64_t>(wp.reader), wp.window,
                    static_cast<std::uint64_t>(wp.contenders),
                    static_cast<std::uint64_t>(wp.links),
                    static_cast<std::uint64_t>(wp.delivered),
                    static_cast<std::uint64_t>(wp.polls),
                    static_cast<std::uint64_t>(wp.retries),
                    static_cast<std::uint64_t>(wp.timeouts),
                    static_cast<std::uint64_t>(wp.escalations),
                    static_cast<std::uint64_t>(wp.waveform_polls)});
        // Virtual timestamps must be bit-identical too, not just close.
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof wp.t_close_s);
        std::memcpy(&bits, &wp.t_close_s, sizeof bits);
        out.push_back(bits);
      }
    }
    return out;
  };

  std::vector<std::vector<std::uint64_t>> flats;
  for (const unsigned threads : {1U, 2U, 8U}) {
    common::set_thread_count(threads);
    flats.push_back(flatten(sim::fleet::run_fleet_replicates(fc, 4, rng)));
  }
  common::set_thread_count(0);
  ASSERT_FALSE(flats[0].empty());
  EXPECT_EQ(flats[0], flats[1]);
  EXPECT_EQ(flats[0], flats[2]);
}

}  // namespace
}  // namespace vab
