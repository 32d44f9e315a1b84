// Fault-matrix regression suite: the enforcement arm of the fault-injection
// subsystem and the reader-MAC ARQ.
//
// Three layers of locks:
//  1. Fault primitives — Gilbert–Elliott burst statistics, frame corruption
//     fates, empty-plan no-op guarantees.
//  2. ARQ edge cases under fixed seeds — lost ACK (idempotent dedupe on
//     seq), retry budget exhaustion, backoff ceiling, demotion followed by
//     re-discovery.
//  3. The matrix — {fault kind} x {intensity} x {1/2/8 threads}: protocol
//     outcomes (delivery ratio, rounds-to-complete, retry counts) must be
//     bit-identical for every thread count, and the zero-fault path must be
//     bit-identical to a run with no injector at all.
//  4. The MCS dimension — every ARQ edge case re-runs pinned to the lowest
//     and highest ladder rung, and a {fault kind} x {rung} x {1/2/8
//     threads} matrix pins that fault outcomes are rung-independent where
//     they should be (the injector and the ARQ never consult the rate).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "channel/waveform_channel.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "net/inventory.hpp"
#include "net/mcs/transport.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"
#include "support/channel.hpp"
#include "support/sim.hpp"

namespace vab {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FrameFate;
using net::InventoryConfig;
using net::InventoryResult;
using net::run_inventory;

std::vector<std::uint8_t> make_population(std::size_t n) {
  std::vector<std::uint8_t> pop(n);
  for (std::size_t i = 0; i < n; ++i) pop[i] = static_cast<std::uint8_t>(i + 1);
  return pop;
}

FaultPlan burst_plan(double mean_loss_target, std::uint64_t seed = 0xB00F) {
  // Fix the chain dynamics and scale the bad-state dwell to hit the target:
  // pi_bad = p_gb / (p_gb + p_bg); with loss_bad = 1, loss_good = 0 the mean
  // loss equals pi_bad.
  FaultPlan plan;
  plan.seed = seed;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.p_good_to_bad =
      0.3 * mean_loss_target / (1.0 - mean_loss_target);
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  return plan;
}

// ---------------------------------------------------------------------------
// 1. Fault primitives
// ---------------------------------------------------------------------------

TEST(FaultPlanBasics, EmptyPlanIsEmptyAndDrawsNothing) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.reply_lost());
    EXPECT_FALSE(inj.wake_missed());
    EXPECT_FALSE(inj.dropped_out());
    EXPECT_EQ(inj.clock_skew_s(1.0), 0.0);
  }
  bytes wire{1, 2, 3, 4, 5, 6};
  const bytes before = wire;
  EXPECT_EQ(inj.corrupt_frame(wire), FrameFate::kIntact);
  EXPECT_EQ(wire, before);
  rvec samples(64, 1.0);
  EXPECT_FALSE(inj.apply_snr_dip(samples));
  for (double v : samples) EXPECT_EQ(v, 1.0);
}

TEST(FaultPlanBasics, DefaultScenariosCarryEmptyPlans) {
  EXPECT_TRUE(sim::vab_river_scenario().fault.empty());
  EXPECT_TRUE(sim::vab_ocean_scenario().fault.empty());
  EXPECT_TRUE(sim::pab_river_scenario().fault.empty());
  EXPECT_FALSE(sim::hostile_river_scenario().fault.empty());
}

TEST(GilbertElliott, MeanLossMatchesStationaryDistribution) {
  const FaultPlan plan = burst_plan(0.2);
  EXPECT_NEAR(plan.burst.mean_loss(), 0.2, 1e-12);

  FaultInjector inj(plan);
  std::size_t lost = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) lost += inj.reply_lost() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / static_cast<double>(n), 0.2, 0.02);
}

TEST(GilbertElliott, LossComesInBursts) {
  // Conditional loss probability after a loss must far exceed the marginal:
  // that is what distinguishes a GE channel from i.i.d. loss.
  FaultInjector inj(burst_plan(0.2));
  std::size_t losses = 0, loss_after_loss = 0;
  bool prev = false;
  const std::size_t n = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    const bool lost = inj.reply_lost();
    if (prev) {
      if (lost) ++loss_after_loss;
    }
    if (lost && i + 1 < n) ++losses;
    prev = lost;
  }
  const double conditional =
      static_cast<double>(loss_after_loss) / static_cast<double>(losses);
  EXPECT_GT(conditional, 0.5);  // bad state persists (1 - 0.3 = 0.7 nominal)
}

TEST(FaultPrimitives, CorruptFrameFatesAndDeterminism) {
  FaultPlan plan;
  plan.seed = 7;
  plan.frame_drop_prob = 0.2;
  plan.frame_truncate_prob = 0.2;
  plan.bit_flip_prob = 0.5;
  auto run = [&] {
    FaultInjector inj(plan);
    std::vector<FrameFate> fates;
    std::size_t dropped = 0, truncated = 0, corrupted = 0, intact = 0;
    for (int i = 0; i < 2000; ++i) {
      bytes wire(12, 0xAB);
      switch (inj.corrupt_frame(wire)) {
        case FrameFate::kDropped: ++dropped; break;
        case FrameFate::kTruncated:
          ++truncated;
          EXPECT_LT(wire.size(), 12u);
          EXPECT_GE(wire.size(), 1u);
          break;
        case FrameFate::kCorrupted: ++corrupted; EXPECT_NE(wire, bytes(12, 0xAB)); break;
        case FrameFate::kIntact: ++intact; EXPECT_EQ(wire, bytes(12, 0xAB)); break;
      }
    }
    return std::vector<std::size_t>{dropped, truncated, corrupted, intact};
  };
  const auto a = run();
  EXPECT_EQ(a, run());  // same plan seed -> same fate sequence
  for (std::size_t c : a) EXPECT_GT(c, 0u);
}

TEST(FaultPrimitives, SnrDipAttenuatesAWindow) {
  FaultPlan plan;
  plan.seed = 9;
  plan.snr_dip_prob = 1.0;
  plan.snr_dip_db = 20.0;
  plan.snr_dip_duration_frac = 0.25;
  FaultInjector inj(plan);
  rvec samples(1000, 1.0);
  ASSERT_TRUE(inj.apply_snr_dip(samples));
  std::size_t dipped = 0;
  for (double v : samples) {
    if (v < 0.99) {
      EXPECT_NEAR(v, 0.1, 1e-9);  // -20 dB
      ++dipped;
    }
  }
  EXPECT_EQ(dipped, 250u);
}

TEST(FaultPrimitives, ClockSkewBoundedByPlan) {
  FaultPlan plan;
  plan.seed = 11;
  plan.clock_skew_rel = 0.4;
  FaultInjector inj(plan);
  for (int i = 0; i < 1000; ++i) {
    const double skew = inj.clock_skew_s(2.0);
    EXPECT_LE(std::abs(skew), 0.8);
  }
}

// ---------------------------------------------------------------------------
// 2. ARQ edge cases (fixed seeds)
// ---------------------------------------------------------------------------

TEST(ArqEdgeCases, CleanChannelIsOnePollPerNode) {
  common::Rng rng(1);
  InventoryConfig cfg;
  const auto res = run_inventory(make_population(8), cfg, nullptr, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.delivered, 8u);
  EXPECT_EQ(res.polls, 8u);
  EXPECT_EQ(res.retries, 0u);
  EXPECT_EQ(res.duplicates, 0u);
  EXPECT_EQ(res.rounds, 1u);
  EXPECT_GT(res.duration_s, 0.0);
}

TEST(ArqEdgeCases, LostAckDeduplicatesOnSeq) {
  // Drop every ACK: each report is received, the node never hears the ACK,
  // and completion happens via the duplicate path — exactly once per node.
  common::Rng rng(2);
  InventoryConfig cfg;
  cfg.ack_loss_prob = 1.0;
  const auto res = run_inventory(make_population(5), cfg, nullptr, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.delivered, 5u);
  EXPECT_EQ(res.acks_lost, res.acks_sent);
  // Delivery is idempotent: stats count each node's report once.
  EXPECT_EQ(res.duplicates, 0u);  // inventory accepts on first receipt
}

/// Delivers every uplink report and loses every ACK, without drawing.
class AckEatingTransport final : public net::LinkTransport {
 public:
  bool uplink_delivered(std::uint8_t, bytes&, common::Rng&) override { return true; }
  bool ack_delivered(std::uint8_t, common::Rng&) override { return false; }
};

TEST(ArqEdgeCases, PollExchangeCountsDuplicatesOfUnackedReports) {
  // The node never hears an ACK, so every later poll retransmits the same
  // seq: the reader dedupes it, and the exchange counts it as a duplicate.
  const InventoryConfig cfg;
  net::ReaderMac reader(cfg.timing, cfg.arq);
  net::NodeMac node(7, cfg.timing);
  AckEatingTransport medium;
  common::Rng rng(4);
  InventoryResult res;
  std::vector<net::PollOutcome> outcomes;
  for (int i = 0; i < 3; ++i)
    outcomes.push_back(net::poll_exchange(reader, node, net::SensorReading{}, cfg,
                                          medium, nullptr, rng, res));
  EXPECT_EQ(outcomes,
            (std::vector<net::PollOutcome>{net::PollOutcome::kDelivered,
                                           net::PollOutcome::kDuplicate,
                                           net::PollOutcome::kDuplicate}));
  EXPECT_EQ(res.duplicates, 2u);
  EXPECT_EQ(res.acks_sent, 3u);
  EXPECT_EQ(res.acks_lost, 3u);
  EXPECT_TRUE(node.awaiting_ack());
}

TEST(ArqEdgeCases, TelemetryCountsDuplicatesUnderAckLoss) {
  // Telemetry keeps one reader across cycles, so a lost ACK surfaces as a
  // deduped retransmission on the node's next cycle.
  common::Rng rng(5);
  InventoryConfig cfg;
  cfg.ack_loss_prob = 0.5;
  const net::TelemetryResult tr =
      net::run_telemetry(make_population(8), 6, cfg, nullptr, rng);
  EXPECT_GT(tr.totals.duplicates, 0u);
  EXPECT_EQ(tr.totals.delivered + tr.totals.duplicates + tr.totals.timeouts,
            tr.totals.polls);
}

TEST(ArqEdgeCases, IntermittentAckLossProducesDedupedDuplicates) {
  common::Rng rng(3);
  InventoryConfig cfg;
  cfg.ack_loss_prob = 0.0;
  cfg.reply_loss_prob = 0.4;  // forces re-polls; some reports got through
  cfg.arq.max_retries = 8;
  FaultPlan plan;
  plan.seed = 0xACED;
  FaultInjector inj(plan);
  const auto res = run_inventory(make_population(12), cfg, &inj, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.retries, 0u);
  EXPECT_EQ(res.delivered, 12u);
}

TEST(ArqEdgeCases, RetryBudgetExhaustionParksAndRecovers) {
  // A harsh burst plan with a tiny budget: some nodes exhaust their retry
  // budget in a round, get parked, and complete in a later round.
  common::Rng rng(4);
  InventoryConfig cfg;
  cfg.arq.max_retries = 1;
  cfg.arq.demote_after_misses = 50;  // demotion out of the way
  FaultInjector inj(burst_plan(0.5, 0xBAD));
  const auto res = run_inventory(make_population(10), cfg, &inj, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.budget_exhaustions, 0u);
  EXPECT_GT(res.rounds, 1u);
}

TEST(ArqEdgeCases, PermanentlyDarkNodeTerminatesIncomplete) {
  common::Rng rng(5);
  InventoryConfig cfg;
  cfg.max_polls = 200;
  FaultPlan plan;
  plan.seed = 13;
  plan.dropout_prob = 1.0;  // node never answers
  FaultInjector inj(plan);
  const auto res = run_inventory(make_population(3), cfg, &inj, rng);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.delivered, 0u);
  EXPECT_EQ(res.polls, 200u);  // bounded, no livelock
  EXPECT_EQ(res.delivery_ratio(), 0.0);
}

TEST(ArqEdgeCases, DemotionThenRediscoveryCompletes) {
  // demote_after_misses below the retry budget: bad bursts demote nodes to
  // re-discovery (costed, state wiped) and the inventory still completes.
  // Long bursts (mean ~6.7 polls) make 3 consecutive misses structural
  // rather than a coin-flip of the seed.
  common::Rng rng(6);
  InventoryConfig cfg;
  cfg.arq.max_retries = 6;
  cfg.arq.demote_after_misses = 2;
  FaultPlan plan;
  plan.seed = 0xDE40;
  plan.burst.p_good_to_bad = 0.5;
  plan.burst.p_bad_to_good = 0.15;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  FaultInjector inj(plan);
  const auto res = run_inventory(make_population(10), cfg, &inj, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.demotions, 0u);
  EXPECT_EQ(res.rediscoveries, res.demotions);
  EXPECT_EQ(res.delivered, 10u);
}

TEST(ArqEdgeCases, AcceptanceBurstPlanTwentyPercent) {
  // The PR acceptance pin: a fixed-seed Gilbert–Elliott plan at 20% mean
  // loss must reach 100% delivery within the default retry budget.
  common::Rng rng(42);
  InventoryConfig cfg;
  FaultInjector inj(burst_plan(0.2, 0x20CE));
  const auto res = run_inventory(make_population(16), cfg, &inj, rng);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.delivery_ratio(), 1.0);
  EXPECT_GT(res.retries, 0u);       // the channel did bite
  EXPECT_LT(res.polls, 3 * 16u);    // and the ARQ paid a bounded price
}

// ---------------------------------------------------------------------------
// 3. The matrix: {kind} x {intensity} x {1/2/8 threads}
// ---------------------------------------------------------------------------

struct MatrixCell {
  const char* kind;
  double intensity;
  FaultPlan plan;
};

std::vector<MatrixCell> fault_matrix() {
  std::vector<MatrixCell> cells;
  for (double loss : {0.1, 0.2, 0.4}) cells.push_back({"burst", loss, burst_plan(loss)});
  for (double p : {0.05, 0.15, 0.3}) {
    FaultPlan plan;
    plan.seed = 0xC0 + static_cast<std::uint64_t>(p * 100);
    plan.frame_drop_prob = p;
    plan.frame_truncate_prob = p / 2;
    plan.bit_flip_prob = p;
    cells.push_back({"corrupt", p, plan});
  }
  for (double p : {0.1, 0.3}) {
    FaultPlan plan;
    plan.seed = 0xD0 + static_cast<std::uint64_t>(p * 100);
    plan.wake_miss_prob = p;
    plan.dropout_prob = p / 3;
    cells.push_back({"dropout", p, plan});
  }
  for (double rel : {0.3, 0.8}) {
    FaultPlan plan;
    plan.seed = 0xE0 + static_cast<std::uint64_t>(rel * 100);
    plan.clock_skew_rel = rel;
    cells.push_back({"skew", rel, plan});
  }
  return cells;
}

struct CellOutcome {
  std::size_t delivered = 0, polls = 0, retries = 0, timeouts = 0, duplicates = 0,
              demotions = 0, rounds = 0;
  double delivery_ratio = 0.0, duration_s = 0.0;
  bool complete = false;

  bool operator==(const CellOutcome&) const = default;
};

std::vector<CellOutcome> run_matrix(unsigned threads) {
  common::set_thread_count(threads);
  const auto cells = fault_matrix();
  common::Rng master(0xFA57);
  std::vector<CellOutcome> out(cells.size());
  common::parallel_for(0, cells.size(), [&](std::size_t c) {
    // Per-cell child stream + per-cell injector: the parallel discipline
    // every sweep in this repo follows.
    common::Rng rng = master.child(c);
    FaultInjector inj(cells[c].plan);
    InventoryConfig cfg;
    cfg.arq.demote_after_misses = 8;
    const InventoryResult r = run_inventory(make_population(12), cfg, &inj, rng);
    out[c] = CellOutcome{r.delivered,  r.polls,          r.retries,
                         r.timeouts,   r.duplicates,     r.demotions,
                         r.rounds,     r.delivery_ratio(), r.duration_s,
                         r.complete};
  });
  common::set_thread_count(0);
  return out;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VAB_THREADS");
    common::set_thread_count(0);
  }
  void TearDown() override { common::set_thread_count(0); }
};

TEST_F(FaultMatrixTest, OutcomesBitIdenticalAcrossThreadCounts) {
  const auto serial = run_matrix(1);
  // The matrix must exercise the protocol: every cell delivers everything
  // (these intensities are inside the ARQ's envelope) and the channel bites.
  std::size_t total_retries = 0;
  for (const auto& cell : serial) {
    EXPECT_TRUE(cell.complete);
    EXPECT_EQ(cell.delivery_ratio, 1.0);
    total_retries += cell.retries;
  }
  EXPECT_GT(total_retries, 0u);

  for (unsigned threads : {2u, 8u}) {
    const auto parallel = run_matrix(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(parallel[c], serial[c])
          << "threads=" << threads << " cell=" << c << " ("
          << fault_matrix()[c].kind << " @ " << fault_matrix()[c].intensity << ")";
    }
  }
}

TEST_F(FaultMatrixTest, RunsAreReproducibleAtFixedSeed) {
  const auto a = run_matrix(2);
  const auto b = run_matrix(2);
  EXPECT_EQ(a, b);
}

TEST_F(FaultMatrixTest, BurstLossCostsExtraPolls) {
  // Every burst cell must pay more polls than the loss-free count (one per
  // node): the matrix would not be measuring anything otherwise. Poll counts
  // between adjacent intensities are seed-dependent at this population size,
  // so the pin is against the clean floor, not between cells.
  const auto outcomes = run_matrix(1);
  const auto cells = fault_matrix();
  std::size_t burst_cells = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (std::string(cells[c].kind) != "burst") continue;
    ++burst_cells;
    EXPECT_GT(outcomes[c].polls, 12u) << "intensity " << cells[c].intensity;
    EXPECT_GT(outcomes[c].retries, 0u) << "intensity " << cells[c].intensity;
  }
  EXPECT_EQ(burst_cells, 3u);
}

// ---------------------------------------------------------------------------
// 4. Zero-fault bit-identity
// ---------------------------------------------------------------------------

TEST(ZeroFaultIdentity, InventoryMatchesNullInjector) {
  InventoryConfig cfg;
  cfg.reply_loss_prob = 0.3;  // clean-channel randomness still in play
  common::Rng rng_null(77);
  const auto without = run_inventory(make_population(10), cfg, nullptr, rng_null);
  common::Rng rng_empty(77);
  FaultInjector empty{FaultPlan{}};
  const auto with = run_inventory(make_population(10), cfg, &empty, rng_empty);
  EXPECT_EQ(without.delivered, with.delivered);
  EXPECT_EQ(without.polls, with.polls);
  EXPECT_EQ(without.retries, with.retries);
  EXPECT_EQ(without.rounds, with.rounds);
  EXPECT_EQ(without.duration_s, with.duration_s);
}

TEST(ZeroFaultIdentity, WaveformChannelMatchesNullInjector) {
  // An attached injector with an empty plan must leave propagate() output
  // bit-identical to the null hook, including every Rng draw.
  channel::WaveformChannelConfig cfg;
  cfg.fs_hz = 96000.0;
  cfg.taps = channel::single_tap(0.01, 0.005);
  cfg.fading_sigma_db = 2.0;
  cfg.add_noise = true;
  rvec tx(4096);
  for (std::size_t i = 0; i < tx.size(); ++i)
    tx[i] = std::sin(0.07 * static_cast<double>(i));

  common::Rng rng_a(5);
  channel::WaveformChannel plain(cfg, rng_a);
  rvec out_plain;
  plain.propagate(tx, out_plain);

  FaultInjector empty{FaultPlan{}};
  channel::WaveformChannelConfig cfg_hooked = cfg;
  cfg_hooked.fault = &empty;
  common::Rng rng_b(5);
  channel::WaveformChannel hooked(cfg_hooked, rng_b);
  rvec out_hooked;
  hooked.propagate(tx, out_hooked);

  ASSERT_EQ(out_plain.size(), out_hooked.size());
  for (std::size_t i = 0; i < out_plain.size(); ++i)
    ASSERT_EQ(out_plain[i], out_hooked[i]) << "sample " << i;
}

TEST(ZeroFaultIdentity, WaveformTrialMatchesEmptyPlanScenario) {
  // E1/E3-style seeded waveform output with the fault member present but
  // empty: same demod result bit-for-bit (the golden pins in
  // test_golden_experiments guard the full experiments at their own seeds).
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 40.0;
  s.env.fading_sigma_db = 0.0;
  ASSERT_TRUE(s.fault.empty());

  common::Rng rng_a(3);
  sim::WaveformSimulator sim_a(s, rng_a);
  common::Rng bits_rng(8);
  const bitvec payload = bits_rng.random_bits(48);
  const auto r_a = sim_a.run_trial(payload);

  common::Rng rng_b(3);
  sim::WaveformSimulator sim_b(s, rng_b);
  const auto r_b = sim_b.run_trial(payload);

  EXPECT_EQ(r_a.bit_errors, r_b.bit_errors);
  EXPECT_EQ(r_a.frame_ok, r_b.frame_ok);
  EXPECT_EQ(r_a.demod.snr_db, r_b.demod.snr_db);
  EXPECT_EQ(r_a.demod.corr_peak, r_b.demod.corr_peak);
}

// ---------------------------------------------------------------------------
// 5. Impairment actually degrades the waveform link (sanity of the hook)
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// 6. The MCS dimension: ARQ edge cases and the fault matrix, rung-pinned
// ---------------------------------------------------------------------------

const net::mcs::McsLadder& shared_ladder() {
  static const net::mcs::McsLadder* l =
      new net::mcs::McsLadder(net::mcs::McsLadder::default_ladder());
  return *l;
}

std::size_t top_rung() { return shared_ladder().size() - 1; }

/// Inventory config pinned (frozen controller) to one ladder rung.
InventoryConfig rung_pinned_config(std::size_t rung) {
  InventoryConfig cfg;
  cfg.ladder = &shared_ladder();
  cfg.adapt.frozen = true;
  cfg.adapt.start_rung = rung;
  return cfg;
}

/// High-SNR analytic transport: every rung's curve is in its clean region,
/// so channel loss comes only from the explicit erasure knobs and the fault
/// injector — the rung cannot influence outcomes except via airtime.
net::mcs::AnalyticMcsTransport clean_mcs_transport(double reply_loss = 0.0,
                                                   double ack_loss = 0.0) {
  net::mcs::AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = 25.0;
  tcfg.fading_sigma_db = 0.0;
  tcfg.reply_loss_prob = reply_loss;
  tcfg.ack_loss_prob = ack_loss;
  return net::mcs::AnalyticMcsTransport(shared_ladder(), tcfg);
}

TEST(ArqEdgeCasesAtRungs, LostAckDeduplicatesOnSeqAtBothExtremes) {
  for (const std::size_t rung : {std::size_t{0}, top_rung()}) {
    common::Rng rng(2);
    const InventoryConfig cfg = rung_pinned_config(rung);
    auto tp = clean_mcs_transport(0.0, 1.0);  // every ACK lost
    const auto res = run_inventory(make_population(5), cfg, nullptr, rng, &tp);
    EXPECT_TRUE(res.complete) << "rung " << rung;
    EXPECT_EQ(res.delivered, 5u) << "rung " << rung;
    EXPECT_EQ(res.acks_lost, res.acks_sent) << "rung " << rung;
    EXPECT_EQ(res.duplicates, 0u) << "rung " << rung;
  }
}

TEST(ArqEdgeCasesAtRungs, RetryBudgetExhaustionParksAndRecoversAtBothExtremes) {
  for (const std::size_t rung : {std::size_t{0}, top_rung()}) {
    common::Rng rng(4);
    InventoryConfig cfg = rung_pinned_config(rung);
    cfg.arq.max_retries = 1;
    cfg.arq.demote_after_misses = 50;
    FaultInjector inj(burst_plan(0.5, 0xBAD));
    auto tp = clean_mcs_transport();
    const auto res = run_inventory(make_population(10), cfg, &inj, rng, &tp);
    EXPECT_TRUE(res.complete) << "rung " << rung;
    EXPECT_GT(res.budget_exhaustions, 0u) << "rung " << rung;
    EXPECT_GT(res.rounds, 1u) << "rung " << rung;
  }
}

TEST(ArqEdgeCasesAtRungs, DemotionThenRediscoveryCompletesAtBothExtremes) {
  for (const std::size_t rung : {std::size_t{0}, top_rung()}) {
    common::Rng rng(6);
    InventoryConfig cfg = rung_pinned_config(rung);
    cfg.arq.max_retries = 6;
    cfg.arq.demote_after_misses = 2;
    FaultPlan plan;
    plan.seed = 0xDE40;
    plan.burst.p_good_to_bad = 0.5;
    plan.burst.p_bad_to_good = 0.15;
    plan.burst.loss_good = 0.0;
    plan.burst.loss_bad = 1.0;
    FaultInjector inj(plan);
    auto tp = clean_mcs_transport();
    const auto res = run_inventory(make_population(10), cfg, &inj, rng, &tp);
    EXPECT_TRUE(res.complete) << "rung " << rung;
    EXPECT_GT(res.demotions, 0u) << "rung " << rung;
    EXPECT_EQ(res.rediscoveries, res.demotions) << "rung " << rung;
  }
}

TEST(ArqEdgeCasesAtRungs, FrozenControllerNeverLeavesItsRung) {
  for (const std::size_t rung : {std::size_t{0}, top_rung()}) {
    common::Rng rng(8);
    const InventoryConfig cfg = rung_pinned_config(rung);
    FaultInjector inj(burst_plan(0.3, 0xF00));
    auto tp = clean_mcs_transport();
    const auto res = run_inventory(make_population(8), cfg, &inj, rng, &tp);
    EXPECT_EQ(res.mcs_steps_up, 0u) << "rung " << rung;
    EXPECT_EQ(res.mcs_steps_down, 0u) << "rung " << rung;
    ASSERT_EQ(res.rung_polls.size(), 1u) << "rung " << rung;
    EXPECT_EQ(res.rung_polls.begin()->first, rung);
    // Nodes start at the paper rung and reconfigure at most once, to the
    // pinned rung, on the first commanded query.
    const std::size_t expect_reconf =
        rung == net::mcs::McsLadder::kPaperRung ? 0u : 8u;
    EXPECT_EQ(res.reconfigures, expect_reconf) << "rung " << rung;
  }
}

TEST(ArqEdgeCasesAtRungs, SlowestRungCostsMoreAirtimeSameOutcomes) {
  // Same seed, same faults: the rung must not change *protocol* outcomes,
  // only the airtime bill (rung 0 is 32x slower than the top rung).
  auto run_at = [](std::size_t rung) {
    common::Rng rng(10);
    const InventoryConfig cfg = rung_pinned_config(rung);
    FaultInjector inj(burst_plan(0.2, 0xA1D));
    auto tp = clean_mcs_transport();
    return run_inventory(make_population(10), cfg, &inj, rng, &tp);
  };
  const auto lo = run_at(0);
  const auto hi = run_at(top_rung());
  EXPECT_EQ(lo.delivered, hi.delivered);
  EXPECT_EQ(lo.polls, hi.polls);
  EXPECT_EQ(lo.retries, hi.retries);
  EXPECT_EQ(lo.timeouts, hi.timeouts);
  EXPECT_EQ(lo.rounds, hi.rounds);
  EXPECT_GT(lo.duration_s, hi.duration_s);
}

/// Loses the first `misses` uplinks, then delivers every leg.
class LoseFirstUplinks final : public net::LinkTransport {
 public:
  explicit LoseFirstUplinks(std::size_t misses) : misses_(misses) {}
  bool uplink_delivered(std::uint8_t /*addr*/, bytes& /*wire*/,
                        common::Rng& /*rng*/) override {
    if (misses_ == 0) return true;
    --misses_;
    return false;
  }
  bool ack_delivered(std::uint8_t /*addr*/, common::Rng& /*rng*/) override {
    return true;
  }

 private:
  std::size_t misses_;
};

TEST(ArqEdgeCasesAtRungs, MissWaitsAreChargedAtTheMissedPollsRung) {
  // Rung 0 is the slowest rung: its slot is several times the fixed-rate
  // FM0 slot, so a wait charged at the wrong slot shows in the airtime.
  const InventoryConfig base = rung_pinned_config(0);
  const net::MacTiming& t = base.timing;
  const double slot = shared_ladder().rung(0).slot_duration(t.slot_payload_bytes).raw();
  ASSERT_GT(slot, 2.0 * t.slot_duration_s());
  // MCS queries and ACKs both carry one payload byte.
  const double downlink =
      static_cast<double>(net::wire_size(1) * 8) / t.downlink_bitrate_bps;
  const double poll = downlink + (t.guard_s + slot);

  {  // one miss, then delivery: one backoff slot of rung 0
    common::Rng rng(1);
    LoseFirstUplinks tp(1);
    const auto res = run_inventory({7}, base, nullptr, rng, &tp);
    ASSERT_EQ(res.polls, 2u);
    ASSERT_EQ(res.retries, 1u);
    const double backoff = static_cast<double>(net::kBackoffBaseSlots) * slot;
    EXPECT_DOUBLE_EQ(res.duration_s, poll + backoff + poll + downlink);
  }
  {  // demoted on the first miss: the rediscovery penalty in rung-0 slots
    InventoryConfig cfg = base;
    cfg.arq.demote_after_misses = 0;
    common::Rng rng(1);
    LoseFirstUplinks tp(1);
    const auto res = run_inventory({7}, cfg, nullptr, rng, &tp);
    ASSERT_EQ(res.polls, 2u);
    ASSERT_EQ(res.demotions, 1u);
    const double penalty = static_cast<double>(net::kRediscoveryPenaltySlots) * slot;
    EXPECT_DOUBLE_EQ(res.duration_s, poll + penalty + poll + downlink);
  }
}

/// Integer protocol outcomes only: airtime legitimately varies with the
/// rung, so rung-independence is asserted on everything *but* duration.
struct RungCellOutcome {
  std::size_t delivered = 0, polls = 0, retries = 0, timeouts = 0,
              duplicates = 0, demotions = 0, rediscoveries = 0,
              budget_exhaustions = 0, rounds = 0;
  bool complete = false;

  bool operator==(const RungCellOutcome&) const = default;
};

RungCellOutcome to_rung_outcome(const InventoryResult& r) {
  return RungCellOutcome{r.delivered,  r.polls,       r.retries,
                         r.timeouts,   r.duplicates,  r.demotions,
                         r.rediscoveries, r.budget_exhaustions, r.rounds,
                         r.complete};
}

std::vector<std::size_t> matrix_rungs() {
  return {0, net::mcs::McsLadder::kPaperRung, top_rung()};
}

/// {fault kind} x {rung} x {threads}: cells laid out rung-major.
std::vector<RungCellOutcome> run_mcs_matrix(unsigned threads) {
  common::set_thread_count(threads);
  const auto cells = fault_matrix();
  const auto rungs = matrix_rungs();
  common::Rng master(0x5C37);
  std::vector<RungCellOutcome> out(cells.size() * rungs.size());
  common::parallel_for(0, out.size(), [&](std::size_t i) {
    const std::size_t c = i % cells.size();
    const std::size_t rung = rungs[i / cells.size()];
    // The same fault cell must see the same injector and poll streams at
    // every rung: seed by cell, not by (cell, rung).
    common::Rng rng = master.child(c);
    FaultInjector inj(cells[c].plan);
    InventoryConfig cfg = rung_pinned_config(rung);
    cfg.arq.demote_after_misses = 8;
    auto tp = clean_mcs_transport();
    out[i] = to_rung_outcome(
        run_inventory(make_population(12), cfg, &inj, rng, &tp));
  });
  common::set_thread_count(0);
  return out;
}

TEST_F(FaultMatrixTest, McsMatrixBitIdenticalAcrossThreadCounts) {
  const auto serial = run_mcs_matrix(1);
  std::size_t total_retries = 0;
  for (const auto& cell : serial) {
    EXPECT_TRUE(cell.complete);
    total_retries += cell.retries;
  }
  EXPECT_GT(total_retries, 0u);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = run_mcs_matrix(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(parallel[i], serial[i]) << "threads=" << threads << " i=" << i;
  }
}

TEST_F(FaultMatrixTest, McsMatrixOutcomesAreRungIndependent) {
  // Identical injector + poll streams at every rung, and a transport whose
  // clean-region curves never flip a coin differently: every fault cell's
  // protocol outcome must be identical across the whole rung axis.
  const auto out = run_mcs_matrix(1);
  const std::size_t n_cells = fault_matrix().size();
  const std::size_t n_rungs = matrix_rungs().size();
  ASSERT_EQ(out.size(), n_cells * n_rungs);
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (std::size_t r = 1; r < n_rungs; ++r) {
      EXPECT_EQ(out[r * n_cells + c], out[c])
          << "cell " << c << " (" << fault_matrix()[c].kind << ") at rung axis "
          << r;
    }
  }
}

TEST_F(FaultMatrixTest, McsMatrixReproducibleAtFixedSeed) {
  const auto a = run_mcs_matrix(2);
  const auto b = run_mcs_matrix(2);
  EXPECT_EQ(a, b);
}

TEST(FaultWaveform, SnrDipLowersDemodSnr) {
  sim::Scenario clean = sim::vab_river_scenario();
  clean.range_m = 100.0;
  clean.env.fading_sigma_db = 0.0;
  sim::Scenario dipped = clean;
  dipped.fault.snr_dip_prob = 1.0;
  dipped.fault.snr_dip_db = 12.0;
  dipped.fault.snr_dip_duration_frac = 0.5;

  common::Rng bits_rng(4);
  const bitvec payload = bits_rng.random_bits(64);
  common::Rng rng_a(21);
  const auto r_clean = sim::WaveformSimulator(clean, rng_a).run_trial(payload);
  common::Rng rng_b(21);
  const auto r_dip = sim::WaveformSimulator(dipped, rng_b).run_trial(payload);

  EXPECT_LT(r_dip.demod.snr_db, r_clean.demod.snr_db);
}

}  // namespace
}  // namespace vab
