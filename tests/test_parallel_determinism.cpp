// Thread-count-invariant determinism of the Monte-Carlo engine: the same
// master seed must produce BIT-IDENTICAL sweep points, waveform statistics
// and mismatch aggregates with 1, 2 and 8 threads. This is the regression
// lock for the parallel trial-execution engine — any scheduling-dependent
// reduction or shared-stream draw breaks it immediately.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/correlate.hpp"
#include "fault/fault.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "vanatta/mismatch.hpp"

namespace vab {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VAB_THREADS");
    common::set_thread_count(0);
  }
  void TearDown() override { common::set_thread_count(0); }
};

void expect_sweeps_identical(const std::vector<sim::SweepPoint>& a,
                             const std::vector<sim::SweepPoint>& b, unsigned threads) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact equality on purpose: error *counts* and the bit-patterns of the
    // floating-point aggregates, not just the BER to some tolerance.
    EXPECT_EQ(a[i].errors, b[i].errors) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].bits, b[i].bits) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].range_m, b[i].range_m) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].ber, b[i].ber) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].snr_db, b[i].snr_db) << "threads=" << threads << " point " << i;
  }
}

void expect_waveform_stats_identical(const sim::WaveformStats& a,
                                     const sim::WaveformStats& b, unsigned threads) {
  EXPECT_EQ(a.trials, b.trials) << "threads=" << threads;
  EXPECT_EQ(a.frames_synced, b.frames_synced) << "threads=" << threads;
  EXPECT_EQ(a.frames_ok, b.frames_ok) << "threads=" << threads;
  EXPECT_EQ(a.total_bits, b.total_bits) << "threads=" << threads;
  EXPECT_EQ(a.bit_errors, b.bit_errors) << "threads=" << threads;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << "threads=" << threads;
  EXPECT_EQ(a.mean_corr_peak, b.mean_corr_peak) << "threads=" << threads;
  EXPECT_EQ(a.mean_sic_suppression_db, b.mean_sic_suppression_db)
      << "threads=" << threads;
}

TEST_F(DeterminismTest, BerSweepBitIdenticalAcrossThreadCounts) {
  const sim::Scenario s = sim::vab_river_scenario();
  const rvec ranges{50, 150, 250, 350};
  auto run = [&](unsigned threads) {
    common::set_thread_count(threads);
    common::Rng rng(42);
    return sim::ber_vs_range_sweep(s, ranges, 200, 512, rng);
  };
  const auto serial = run(1);
  // The sweep must produce real, countable errors for the check to bite.
  std::size_t total_errors = 0;
  for (const auto& p : serial) total_errors += p.errors;
  ASSERT_GT(total_errors, 0u);
  for (unsigned t : kThreadCounts) expect_sweeps_identical(serial, run(t), t);
}

TEST_F(DeterminismTest, WaveformTrialsBitIdenticalAcrossThreadCounts) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 40.0;  // short range: full-chain trials stay fast
  s.env.fading_sigma_db = 0.0;
  auto run = [&](unsigned threads) {
    common::set_thread_count(threads);
    return sim::run_waveform_batch({sim::WaveformJob{s, 6, 32, common::Rng(42)}})[0];
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.trials, 6u);
  ASSERT_GT(serial.frames_synced, 0u);
  for (unsigned t : kThreadCounts) expect_waveform_stats_identical(serial, run(t), t);
}

TEST_F(DeterminismTest, WaveformBatchMatchesPerJobRuns) {
  // Jobs are independent: each job of a two-job batch (one flat (job, trial)
  // fan-out) must equal its own one-job batch bit-for-bit, at every thread
  // count.
  std::vector<sim::WaveformJob> jobs;
  common::Rng master(7);
  for (double r : {30.0, 45.0}) {
    sim::WaveformJob j;
    j.scenario = sim::vab_river_scenario();
    j.scenario.range_m = r;
    j.scenario.env.fading_sigma_db = 0.0;
    j.trials = 3;
    j.payload_bits = 24;
    j.rng = master.child(static_cast<std::uint64_t>(r));
    jobs.push_back(j);
  }
  for (unsigned t : kThreadCounts) {
    common::set_thread_count(t);
    const auto batch = sim::run_waveform_batch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto alone = sim::run_waveform_batch({jobs[j]});
      ASSERT_EQ(alone.size(), 1u);
      expect_waveform_stats_identical(alone[0], batch[j], t);
    }
  }
}

TEST_F(DeterminismTest, SharedSetUpEqualsPerTrialConstruction) {
  // The campaign runs every trial of a job on one shared WaveformSetup; its
  // stats must equal the fold of trials that each build their own, at 1, 2
  // and 8 threads. With a fault plan every trial must still draw from a
  // fresh FaultInjector: its dips land differently trial after trial when
  // one injector is shared, which the precondition below checks.
  for (const bool faulted : {false, true}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.range_m = 60.0;
    if (faulted) {
      s.fault.snr_dip_prob = 0.5;
      s.fault.snr_dip_db = 20.0;
      fault::FaultInjector shared(s.fault);
      const bool first = shared.draw_snr_dip(1000).has_value();
      bool differs = false;
      for (int t = 1; t < 12; ++t)
        differs |= shared.draw_snr_dip(1000).has_value() != first;
      ASSERT_TRUE(differs) << "the check needs a plan whose later draws differ";
    }
    constexpr std::size_t kTrials = 12, kBits = 32;
    const common::Rng rng(2024);
    std::vector<sim::WaveformTrialOutcome> slots;
    for (std::size_t t = 0; t < kTrials; ++t)
      slots.push_back(sim::run_waveform_trial(sim::WaveformSetup(s), kBits, rng, t));
    const sim::WaveformStats per_trial =
        sim::fold_waveform_trials(slots.data(), kTrials, kBits);
    ASSERT_GT(per_trial.frames_synced, 0u);
    for (unsigned t : kThreadCounts) {
      common::set_thread_count(t);
      const auto shared =
          sim::run_waveform_batch({sim::WaveformJob{s, kTrials, kBits, rng}});
      expect_waveform_stats_identical(per_trial, shared.at(0), t);
    }
  }
}

TEST_F(DeterminismTest, MismatchMonteCarloBitIdenticalAcrossThreadCounts) {
  vanatta::VanAttaConfig cfg;
  cfg.n_elements = 8;
  auto run = [&](unsigned threads) {
    common::set_thread_count(threads);
    common::Rng rng(11);
    return vanatta::mismatch_monte_carlo(cfg, 0.0, 18500.0, 0.2, 0.5, 300, rng);
  };
  const auto serial = run(1);
  for (unsigned t : kThreadCounts) {
    const auto r = run(t);
    EXPECT_EQ(serial.mean_loss_db, r.mean_loss_db) << "threads=" << t;
    EXPECT_EQ(serial.p95_loss_db, r.p95_loss_db) << "threads=" << t;
    EXPECT_EQ(serial.worst_loss_db, r.worst_loss_db) << "threads=" << t;
  }
}

TEST_F(DeterminismTest, FftCorrelationPipelineBitIdenticalAcrossThreadCounts) {
  // The preamble correlation runs inside worker threads with thread-local
  // scratch arenas (its prefix sums, dots and window energies). Per-item
  // results must be bit-identical regardless of which thread (and hence
  // which arena) serves the item, at 1, 2 and 8 threads.
  constexpr std::size_t kItems = 24;
  auto run = [&](unsigned threads) {
    common::set_thread_count(threads);
    std::vector<std::pair<std::size_t, double>> peaks(kItems);
    common::parallel_for(std::size_t{0}, kItems, [&](std::size_t i) {
      common::Rng master(97);
      common::Rng rng = master.child(i);
      cvec ref(360);
      for (auto& v : ref) v = rng.complex_gaussian();
      cvec sig(6000);
      for (auto& v : sig) v = 0.2 * rng.complex_gaussian();
      const std::size_t at = 500 + 200 * i;
      for (std::size_t n = 0; n < ref.size(); ++n) sig[at + n] += ref[n];
      const auto peak = dsp::find_peak(sig, ref, 0.5);
      peaks[i] = peak ? std::make_pair(peak->index, peak->value)
                      : std::make_pair(std::size_t{0}, -1.0);
    });
    return peaks;
  };
  const auto serial = run(1);
  for (std::size_t i = 0; i < kItems; ++i)
    ASSERT_EQ(serial[i].first, 500 + 200 * i) << "item " << i;
  for (unsigned t : kThreadCounts) {
    const auto r = run(t);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(serial[i].first, r[i].first) << "threads=" << t << " item " << i;
      EXPECT_EQ(serial[i].second, r[i].second) << "threads=" << t << " item " << i;
    }
  }
}

TEST_F(DeterminismTest, VabThreadsEnvGivesSameResults) {
  // The env path (how users set the count) must agree with the API path.
  const sim::Scenario s = sim::vab_river_scenario();
  const rvec ranges{100, 300};
  common::set_thread_count(1);
  common::Rng r1(5);
  const auto serial = sim::ber_vs_range_sweep(s, ranges, 100, 256, r1);
  setenv("VAB_THREADS", "8", 1);
  common::set_thread_count(0);
  common::Rng r2(5);
  const auto env_run = sim::ber_vs_range_sweep(s, ranges, 100, 256, r2);
  unsetenv("VAB_THREADS");
  expect_sweeps_identical(serial, env_run, 8);
}

}  // namespace
}  // namespace vab
