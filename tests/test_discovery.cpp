// Node discovery (EXT-4, bench/fig_discovery): an unknown population is
// inventoried with the slotted MAC at the bench's settings (Q starts at 2,
// caps at 8, 256 frames), every node replying at equal power so a shared
// slot always collides. Completeness, Q adaptation, slot accounting,
// efficiency and loss resilience at those settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "net/anticollision/slotted.hpp"

namespace vab::net {
namespace {

using anticollision::Contender;
using anticollision::QAdapter;
using anticollision::QConfig;
using anticollision::run_slotted_inventory;
using anticollision::SlotKind;

constexpr double kAlohaOptimalEfficiency = 0.368;  // 1/e

/// The EXT-4 discovery settings.
QConfig discovery_config() {
  QConfig cfg;
  cfg.q_init = 2.0;
  cfg.q_max = 8.0;
  cfg.max_rounds = 256;
  return cfg;
}

/// Addresses 1..n, equal power, each winning reply lost with `loss`.
std::vector<Contender> make_population(std::size_t n, double loss = 0.0) {
  std::vector<Contender> pop(n);
  for (std::size_t i = 0; i < n; ++i)
    pop[i] = {static_cast<std::uint16_t>(i + 1), 1.0, 1.0 - loss};
  return pop;
}

TEST(Discovery, FindsEveryNode) {
  common::Rng rng(1);
  for (std::size_t n : {1u, 3u, 10u, 40u}) {
    common::Rng local = rng.child(n);
    const auto res = run_slotted_inventory(make_population(n), discovery_config(), local);
    EXPECT_TRUE(res.complete) << n << " nodes";
    EXPECT_EQ(res.resolved.size(), n) << n << " nodes";
  }
}

TEST(Discovery, SingleNodeIsFast) {
  common::Rng rng(2);
  const auto res = run_slotted_inventory(make_population(1), discovery_config(), rng);
  ASSERT_TRUE(res.complete);
  EXPECT_LE(res.rounds, 2u);
}

TEST(Discovery, QGrowsUnderCollisions) {
  // 60 nodes into 4 initial slots: the first rounds are all collisions, so
  // Q must climb before anything resolves. The frame size of each round is
  // recovered by replaying the recorded slot outcomes through the reader's
  // own Q state machine.
  common::Rng rng(3);
  QConfig cfg = discovery_config();
  cfg.record_trace = true;
  const auto res = run_slotted_inventory(make_population(60), cfg, rng);
  ASSERT_TRUE(res.complete);
  QAdapter replay(cfg);
  std::uint8_t max_q = replay.q();
  for (const auto& rec : res.trace) {
    replay.on_slot(rec.kind);
    max_q = std::max(max_q, replay.q());
  }
  EXPECT_EQ(replay.qfp(), res.final_qfp);
  EXPECT_GE(max_q, 5);  // needs ~2^6 slots for 60 nodes
}

TEST(Discovery, SlotAccountingConsistent) {
  common::Rng rng(4);
  QConfig cfg = discovery_config();
  cfg.record_trace = true;
  const auto res = run_slotted_inventory(make_population(20), cfg, rng);
  ASSERT_TRUE(res.complete);
  EXPECT_TRUE(res.conserves());
  EXPECT_EQ(res.capture_slots, 0u);  // equal powers never capture
  ASSERT_EQ(res.trace.size(), res.slots);
  struct Round {
    std::size_t slots = 0, empties = 0, singletons = 0, collisions = 0;
  };
  std::map<std::size_t, Round> rounds;
  for (const auto& rec : res.trace) {
    Round& r = rounds[rec.round];
    ++r.slots;
    if (rec.kind == SlotKind::kIdle) ++r.empties;
    if (rec.kind == SlotKind::kSuccess) ++r.singletons;
    if (rec.kind == SlotKind::kCollision) ++r.collisions;
  }
  EXPECT_EQ(rounds.size(), res.rounds);
  std::size_t sum = 0;
  for (const auto& [round, r] : rounds) {
    EXPECT_EQ(r.empties + r.singletons + r.collisions, r.slots) << "round " << round;
    sum += r.slots;
  }
  EXPECT_EQ(sum, res.slots);
}

TEST(Discovery, EfficiencyNearAlohaBound) {
  // Averaged over seeds, framed slotted Aloha with adaptive Q should land
  // within a factor ~2 of the 1/e optimum (i.e. <= ~6 slots per node).
  common::Rng rng(5);
  double total_spn = 0.0;
  const int seeds = 10;
  const std::size_t n = 30;
  for (int s = 0; s < seeds; ++s) {
    common::Rng local = rng.child(static_cast<std::uint64_t>(s));
    const auto res = run_slotted_inventory(make_population(n), discovery_config(), local);
    EXPECT_TRUE(res.complete);
    total_spn += static_cast<double>(res.slots) / static_cast<double>(n);
  }
  const double avg = total_spn / seeds;
  EXPECT_LT(avg, 2.0 / kAlohaOptimalEfficiency);
  EXPECT_GT(avg, 1.0);  // can't beat one slot per node
}

TEST(Discovery, SurvivesReplyLoss) {
  // 30% of winning replies lost: every run still completes, and loss costs
  // slots. The lossy and clean runs share a seed but their draws diverge
  // after the first lost reply, so the cost is compared over the seeds.
  std::size_t lossy_slots = 0, clean_slots = 0;
  for (std::uint64_t seed = 6; seed < 14; ++seed) {
    common::Rng rng(seed);
    const auto res =
        run_slotted_inventory(make_population(15, 0.3), discovery_config(), rng);
    EXPECT_TRUE(res.complete) << "seed " << seed;
    EXPECT_GT(res.decode_failures, 0u) << "seed " << seed;
    lossy_slots += res.slots;
    common::Rng rng2(seed);
    const auto clean =
        run_slotted_inventory(make_population(15), discovery_config(), rng2);
    EXPECT_TRUE(clean.complete) << "seed " << seed;
    clean_slots += clean.slots;
  }
  EXPECT_GE(lossy_slots, clean_slots);
}

TEST(Discovery, RoundLimitReported) {
  common::Rng rng(7);
  QConfig cfg = discovery_config();
  cfg.max_rounds = 1;
  cfg.q_init = 0.0;  // one slot for 20 nodes: guaranteed collision
  const auto res = run_slotted_inventory(make_population(20), cfg, rng);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.rounds, 1u);
}

}  // namespace
}  // namespace vab::net
