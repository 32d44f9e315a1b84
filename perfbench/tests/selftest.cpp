// Self-tests of the benchmark's own helpers: the tail-percentile rule, the
// best-of-passes rates, and that the output checks and fingerprints catch tampered outcomes.
// Run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, so the value is the rank
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheChosenRank) {
  const auto t100 = tail_percentile(ramp(100));
  ASSERT_TRUE(t100);
  EXPECT_EQ(t100->percentile, 90.0);  // p95 leaves only 5 beyond it
  EXPECT_EQ(t100->value, 90.0);
  EXPECT_EQ(t100->samples, 100u);

  const auto t200 = tail_percentile(ramp(200));
  ASSERT_TRUE(t200);
  EXPECT_EQ(t200->percentile, 95.0);
  EXPECT_EQ(t200->value, 190.0);

  const auto t1000 = tail_percentile(ramp(1000));
  ASSERT_TRUE(t1000);
  EXPECT_EQ(t1000->percentile, 99.0);
  EXPECT_EQ(t1000->value, 990.0);
  EXPECT_EQ(t1000->samples, 1000u);
}

TEST(TailPercentile, SmallSampleSets) {
  const auto t20 = tail_percentile(ramp(20));
  ASSERT_TRUE(t20);
  EXPECT_EQ(t20->percentile, 50.0);
  EXPECT_EQ(t20->value, 10.0);
  EXPECT_FALSE(tail_percentile(ramp(19)));  // not even the median qualifies
  EXPECT_FALSE(tail_percentile({}));
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_percentile(v)->value, 90.0);
}

TEST(BestOfPasses, RatesEachOperationByItsFastestRepeat) {
  BestOfPasses best(3);
  best.record(0, 2.0);
  best.record(0, 1.0);  // the fastest repeat of op 0
  best.record(0, 4.0);
  best.record(1, 0.5);
  best.record(2, 1.0);
  best.record(2, 2.0);
  // Rates 10/1, 10/0.5, 30/1: the median is the middle one.
  EXPECT_EQ(best.median_rate({10.0, 10.0, 30.0}), 20.0);
  EXPECT_EQ(best.repeats(), std::make_pair(std::size_t{1}, std::size_t{3}));
}

TEST(BestOfPasses, SkipsOperationsNeverTimed) {
  BestOfPasses best(3);
  best.record(0, 1.0);
  best.record(2, 4.0);
  EXPECT_EQ(best.median_rate({8.0, 100.0, 8.0}), 5.0);  // mean of 8 and 2
}

TEST(BestOfPasses, FirstPassAlwaysCompletes) {
  const BestOfPasses best(4);
  const double long_ago = now_s() - 1e6;
  EXPECT_TRUE(best.more(3, long_ago, 1.0));   // still in the first pass
  EXPECT_FALSE(best.more(4, long_ago, 1.0));  // time is up after it
  EXPECT_TRUE(best.more(4, now_s(), 60.0));   // time left: another pass
}

vab::sim::WaveformStats good_stats() {
  vab::sim::WaveformStats s;
  s.trials = 24;
  s.frames_synced = 20;
  s.frames_ok = 18;
  s.total_bits = 24 * 64;
  s.bit_errors = 300;
  s.mean_snr_db = 12.5;
  s.mean_corr_peak = 0.8;
  s.mean_sic_suppression_db = 40.0;
  return s;
}

TEST(TrialChecks, AcceptConsistentStats) {
  EXPECT_EQ(check_trial_stats(good_stats(), 64), "");
}

TEST(TrialChecks, RejectTamperedStats) {
  auto s = good_stats();
  s.frames_ok = s.frames_synced + 1;
  EXPECT_NE(check_trial_stats(s, 64), "");
  s = good_stats();
  s.frames_synced = s.trials + 1;
  EXPECT_NE(check_trial_stats(s, 64), "");
  s = good_stats();
  s.bit_errors = s.total_bits + 1;
  EXPECT_NE(check_trial_stats(s, 64), "");
  EXPECT_NE(check_trial_stats(good_stats(), 32), "");  // wrong payload size
}

TEST(TrialChecks, IdentityIsBitExact) {
  const auto a = good_stats();
  auto b = a;
  EXPECT_TRUE(stats_identical(a, b));
  b.mean_snr_db = std::nextafter(b.mean_snr_db, 100.0);
  EXPECT_FALSE(stats_identical(a, b));
}

TEST(Fingerprint, ChangesWhenAnyStatisticChanges) {
  const std::vector<vab::sim::WaveformStats> base{good_stats(), good_stats()};
  Fingerprint ref;
  fold_stats(ref, base);
  Fingerprint same;
  fold_stats(same, base);
  EXPECT_EQ(ref.value(), same.value());

  auto tampered = base;
  tampered[1].bit_errors += 1;
  Fingerprint f1;
  fold_stats(f1, tampered);
  EXPECT_NE(ref.value(), f1.value());

  tampered = base;
  tampered[0].mean_corr_peak = std::nextafter(tampered[0].mean_corr_peak, 1.0);
  Fingerprint f2;
  fold_stats(f2, tampered);
  EXPECT_NE(ref.value(), f2.value());
}

class FleetChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.scenario = vab::sim::vab_river_scenario();
    cfg_.n_nodes = 100;
    cfg_.n_readers = 1;
    cfg_.area_m = 300.0;
    cfg_.fidelity.mode = vab::sim::fleet::FidelityMode::kBudgetOnly;
    result_ = vab::sim::fleet::run_fleet(cfg_, vab::common::Rng(42));
  }
  vab::sim::fleet::FleetConfig cfg_;
  vab::sim::fleet::FleetResult result_;
};

TEST_F(FleetChecks, AcceptARealReplicate) { EXPECT_EQ(check_fleet_result(result_, cfg_), ""); }

TEST_F(FleetChecks, RejectTamperedReplicates) {
  auto r = result_;
  r.unreachable += 1;
  EXPECT_NE(check_fleet_result(r, cfg_), "");
  r = result_;
  r.delivered = r.assigned + 1;
  EXPECT_NE(check_fleet_result(r, cfg_), "");
  r = result_;
  r.polls += 1;
  EXPECT_NE(check_fleet_result(r, cfg_), "");
  r = result_;
  r.tally.waveform_polls = 1;  // budget-only fidelity allows none
  r.tally.budget_polls -= 1;
  EXPECT_NE(check_fleet_result(r, cfg_), "");
}

TEST_F(FleetChecks, FingerprintFollowsTheDigest) {
  Fingerprint a;
  fold_fleet(a, result_);
  auto r = result_;
  r.digest ^= 1;
  Fingerprint b;
  fold_fleet(b, r);
  EXPECT_NE(a.value(), b.value());
}

}  // namespace
}  // namespace perfbench
