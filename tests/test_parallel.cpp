// The parallel trial-execution engine itself: thread pool behaviour, range
// edge cases, exception propagation, nesting and thread-count resolution.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace vab::common {
namespace {

// Every test must leave the global thread-count configuration untouched.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VAB_THREADS");
    set_thread_count(0);
  }
  void TearDown() override {
    unsetenv("VAB_THREADS");
    set_thread_count(0);
  }
};

TEST_F(ParallelTest, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });  // inverted: no-op
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, EveryIndexVisitedExactlyOnce) {
  set_thread_count(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_F(ParallelTest, NonZeroBeginOffset) {
  set_thread_count(4);
  std::vector<int> visits(100, 0);
  parallel_for(40, 100, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(visits[i], 0) << i;
  for (std::size_t i = 40; i < 100; ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST_F(ParallelTest, RangeSmallerThanThreadCount) {
  set_thread_count(8);
  std::vector<std::atomic<int>> visits(3);
  parallel_for(0, 3, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  set_thread_count(4);
  EXPECT_THROW(parallel_for(0, 1000,
                            [&](std::size_t i) {
                              if (i == 137) throw std::runtime_error("trial 137 failed");
                            }),
               std::runtime_error);
  // The pool must stay fully usable after a throwing loop.
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST_F(ParallelTest, NestedParallelForDoesNotDeadlockAndIsCorrect) {
  set_thread_count(4);
  constexpr std::size_t kOuter = 8, kInner = 500;
  std::vector<std::size_t> sums(kOuter, 0);
  parallel_for(0, kOuter, [&](std::size_t o) {
    // Inside a worker this runs inline; either way each index once.
    std::vector<int> marks(kInner, 0);
    parallel_for(0, kInner, [&](std::size_t i) { ++marks[i]; });
    std::size_t s = 0;
    for (int m : marks) s += static_cast<std::size_t>(m);
    sums[o] = s;
  });
  for (std::size_t o = 0; o < kOuter; ++o) EXPECT_EQ(sums[o], kInner) << o;
}

TEST_F(ParallelTest, VabThreadsEnvForcesSerial) {
  setenv("VAB_THREADS", "1", 1);
  set_thread_count(0);  // no override: env wins
  EXPECT_EQ(thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(64);
  parallel_for(0, ids.size(),
               [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST_F(ParallelTest, VabThreadsEnvSetsPoolWidth) {
  setenv("VAB_THREADS", "3", 1);
  EXPECT_EQ(thread_count(), 3u);
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 64, [&](std::size_t) {
    std::lock_guard<std::mutex> lk(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 3u);
  EXPECT_GE(ids.size(), 1u);
}

TEST_F(ParallelTest, SetThreadCountOverridesEnv) {
  setenv("VAB_THREADS", "7", 1);
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2u);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 7u);
}

TEST_F(ParallelTest, AutoResolutionFallsBackToHardware) {
  EXPECT_EQ(thread_count(), hardware_thread_count());
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST_F(ParallelTest, ParallelReduceSumsExactly) {
  set_thread_count(8);
  const std::size_t n = 12345;
  const auto total = parallel_reduce<std::size_t>(
      0, n, 0, [](std::size_t i) { return i; },
      [](std::size_t a, std::size_t b) { return a + b; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST_F(ParallelTest, ParallelReduceFloatBitIdenticalAcrossThreadCounts) {
  // The fold shape depends only on the range, so floating-point results
  // must match bitwise between serial and wide runs.
  auto run = [](unsigned threads) {
    set_thread_count(threads);
    return parallel_reduce<double>(
        0, 20000, 0.0,
        [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace vab::common
