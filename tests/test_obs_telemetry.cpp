// Tests for the telemetry layer built on top of the metrics registry and
// trace rings: labeled metric families (bounded cardinality), virtual-time
// series export (vab-series-v1), and the span-aggregation profiler
// (vab-profile-v1). Suite names deliberately match the TSan CI regex
// (Parallel / Determinism) for the concurrent paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "support/obs.hpp"

namespace {

using vab::obs::counter_value;
using vab::obs::CounterFamily;
using vab::obs::LabelSet;
using vab::obs::Registry;
using vab::obs::SeriesPoint;
using vab::obs::series_count;
using vab::obs::SeriesWriter;

// --- label encoding ---------------------------------------------------------

TEST(ObsLabels, EncodeSortsKeysAndValidates) {
  EXPECT_EQ(vab::obs::encode_labels({{"reader", "3"}}), "{reader=3}");
  EXPECT_EQ(vab::obs::encode_labels({{"z", "1"}, {"a", "2"}}), "{a=2,z=1}");
  EXPECT_EQ(vab::obs::encode_labels({{"mcs", "fsk-2"}, {"node_class", "v1.2"}}),
            "{mcs=fsk-2,node_class=v1.2}");
}

TEST(ObsLabels, EncodeRejectsMalformedSets) {
  EXPECT_THROW(vab::obs::encode_labels({}), std::invalid_argument);
  EXPECT_THROW(vab::obs::encode_labels({{"", "v"}}), std::invalid_argument);
  EXPECT_THROW(vab::obs::encode_labels({{"k", ""}}), std::invalid_argument);
  EXPECT_THROW(vab::obs::encode_labels({{"k", "a b"}}), std::invalid_argument);
  EXPECT_THROW(vab::obs::encode_labels({{"k{", "v"}}), std::invalid_argument);
  EXPECT_THROW(vab::obs::encode_labels({{"k", "1"}, {"k", "2"}}),
               std::invalid_argument);
}

// --- counter/histogram families --------------------------------------------

TEST(ObsLabels, CounterFamilyFansOutPerLabelSet) {
  Registry reg;
  CounterFamily fam(reg, "fam.count");
  fam.with({{"reader", "0"}}).add(3);
  fam.with({{"reader", "1"}}).add(5);
  fam.with({{"reader", "0"}}).add(4);  // same series as the first
  EXPECT_EQ(series_count(reg, "fam.count"), 2u);
  EXPECT_EQ(counter_value(reg, "fam.count.labels_dropped"), 0u);
  EXPECT_EQ(counter_value(reg, "fam.count{reader=0}"), 7u);
  EXPECT_EQ(counter_value(reg, "fam.count{reader=1}"), 5u);
  const std::string snap = reg.snapshot_json(false);
  // The plain family name can coexist with its labeled series, and sorts
  // before them ('{' > alphanumerics in ASCII).
  const auto a = snap.find("\"fam.count.labels_dropped\"");
  const auto b = snap.find("\"fam.count{overflow}\"");
  const auto c = snap.find("\"fam.count{reader=0}\"");
  ASSERT_NE(a, std::string::npos) << snap;
  ASSERT_NE(b, std::string::npos) << snap;
  ASSERT_NE(c, std::string::npos) << snap;
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(ObsLabels, CardinalityCapRoutesToOverflow) {
  Registry reg;
  CounterFamily fam(reg, "capped", 2);
  fam.with({{"id", "0"}}).inc();
  fam.with({{"id", "1"}}).inc();
  // Third distinct set: over the cap, lands in the overflow series.
  fam.with({{"id", "2"}}).add(10);
  fam.with({{"id", "3"}}).add(20);
  // Already-admitted sets keep their own series.
  fam.with({{"id", "0"}}).inc();
  EXPECT_EQ(series_count(reg, "capped"), 2u);
  EXPECT_EQ(counter_value(reg, "capped.labels_dropped"), 2u);
  EXPECT_EQ(counter_value(reg, "capped{id=0}"), 2u);
  EXPECT_EQ(counter_value(reg, "capped{id=1}"), 1u);
  EXPECT_EQ(counter_value(reg, "capped{overflow}"), 30u);
}

TEST(ObsParallelLabels, ConcurrentResolutionAndRecording) {
  Registry reg;
  CounterFamily fam(reg, "conc.fam", 8);
  constexpr std::size_t kN = 20000;
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, kN, [&](std::size_t i) {
    fam.with({{"shard", std::to_string(i % 4)}}).inc();
  });
  vab::common::set_thread_count(0);
  EXPECT_EQ(series_count(reg, "conc.fam"), 4u);
  EXPECT_EQ(counter_value(reg, "conc.fam.labels_dropped"), 0u);
  std::uint64_t total = 0;
  for (int s = 0; s < 4; ++s)
    total += counter_value(reg, "conc.fam{shard=" + std::to_string(s) + "}");
  EXPECT_EQ(total, kN);  // nothing lost, nothing double-counted
}

TEST(ObsParallelLabels, ConcurrentOverflowAccountingIsExact) {
  Registry reg;
  CounterFamily fam(reg, "spill.fam", 2);
  // Admit the survivors deterministically before fanning out, as the header
  // prescribes for cap-exceeding workloads.
  fam.with({{"id", "0"}});
  fam.with({{"id", "1"}});
  constexpr std::size_t kN = 10000;
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, kN, [&](std::size_t i) {
    fam.with({{"id", std::to_string(i % 8)}}).inc();
  });
  vab::common::set_thread_count(0);
  EXPECT_EQ(series_count(reg, "spill.fam"), 2u);
  const std::uint64_t kept = counter_value(reg, "spill.fam{id=0}") +
                             counter_value(reg, "spill.fam{id=1}");
  const std::uint64_t spilled = counter_value(reg, "spill.fam{overflow}");
  EXPECT_EQ(kept, kN / 4);  // ids 0 and 1 = 2 of 8 residues
  EXPECT_EQ(spilled, kN - kN / 4);
  EXPECT_EQ(counter_value(reg, "spill.fam.labels_dropped"), spilled);
}

TEST(ObsDeterminismLabels, SnapshotIdenticalAcross1_2_8Threads) {
  auto run = [](unsigned threads) {
    Registry reg;
    CounterFamily fam(reg, "det.fam", 4);
    // Pre-register the admitted sets serially so the cap decision does not
    // depend on thread scheduling, then hammer from the pool.
    for (int s = 0; s < 4; ++s) fam.with({{"lane", std::to_string(s)}});
    vab::common::set_thread_count(threads);
    vab::common::parallel_for(0, 6000, [&](std::size_t i) {
      fam.with({{"lane", std::to_string(i % 6)}}).add(i % 3);
    });
    vab::common::set_thread_count(0);
    return reg.snapshot_json(false);
  };
  const std::string s1 = run(1);
  EXPECT_EQ(s1, run(2));
  EXPECT_EQ(s1, run(8));
  EXPECT_NE(s1.find("\"det.fam{overflow}\""), std::string::npos) << s1;
}

// --- virtual-time series ----------------------------------------------------

SeriesPoint make_point(std::uint64_t w, double t) {
  SeriesPoint p;
  p.window = w;
  p.t_s = t;
  p.values = {{"delivered", 10 + w}};
  return p;
}

TEST(ObsSeries, EmitsHeaderThenSortedPoints) {
  SeriesWriter sw("fleet.windows");
  SeriesPoint p = make_point(0, 1.5);
  p.labels = {{"reader", "2"}, {"nodes", "100"}};
  p.values = {{"polls", 7}, {"delivered", 5}};
  p.reals = {{"airtime_s", 0.25}};
  sw.emit(p);
  std::istringstream lines(sw.jsonl());
  std::string header, point;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, point));
  EXPECT_NE(header.find("\"schema\":\"vab-series-v1\""), std::string::npos);
  EXPECT_NE(header.find("\"stream\":\"fleet.windows\""), std::string::npos);
  EXPECT_NE(header.find("\"manifest\":{"), std::string::npos);
  // Labels and values come out key-sorted regardless of emit order; ints
  // and reals share one sorted "v" object.
  EXPECT_EQ(point,
            "{\"w\":0,\"t_s\":1.5,\"labels\":{\"nodes\":\"100\",\"reader\":\"2\"},"
            "\"v\":{\"airtime_s\":0.25,\"delivered\":5,\"polls\":7}}");
}

TEST(ObsSeries, RejectsMalformedPoints) {
  SeriesWriter sw("s");
  SeriesPoint empty;
  empty.t_s = 1.0;
  EXPECT_THROW(sw.emit(empty), std::invalid_argument);  // no values

  SeriesPoint nan_t = make_point(0, std::nan(""));
  EXPECT_THROW(sw.emit(nan_t), std::invalid_argument);

  SeriesPoint dup = make_point(0, 1.0);
  dup.values = {{"x", 1}, {"x", 2}};
  EXPECT_THROW(sw.emit(dup), std::invalid_argument);

  SeriesPoint clash = make_point(0, 1.0);
  clash.values = {{"x", 1}};
  clash.reals = {{"x", 2.0}};
  EXPECT_THROW(sw.emit(clash), std::invalid_argument);
}

TEST(ObsSeries, EnforcesMonotonicWindows) {
  SeriesWriter sw("s");
  sw.emit(make_point(3, 1.0));
  sw.emit(make_point(3, 2.0));  // equal is fine (several points per window)
  sw.emit(make_point(5, 3.0));
  EXPECT_THROW(sw.emit(make_point(4, 4.0)), std::logic_error);
  EXPECT_EQ(sw.points(), 3u);
}

TEST(ObsSeries, StreamsEachPointToDisk) {
  const std::string path = ::testing::TempDir() + "vab_series_test.jsonl";
  {
    SeriesWriter sw("disk.stream", path);
    sw.emit(make_point(0, 1.0));
    // Heartbeat contract: the point is on disk as soon as emit returns,
    // not at writer destruction.
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) ++n;
    EXPECT_EQ(n, 2u);  // header + one point
    sw.emit(make_point(1, 2.0));
  }
  std::ifstream in(path);
  std::stringstream whole;
  whole << in.rdbuf();
  EXPECT_NE(whole.str().find("\"w\":1"), std::string::npos);
  std::remove(path.c_str());
}

// --- span-aggregation profiler ----------------------------------------------

vab::obs::CollectedSpan span(const char* name, std::uint64_t t0, std::uint64_t t1,
                             std::uint32_t tid = 0) {
  vab::obs::CollectedSpan s;
  s.name = name;
  s.cat = "test";
  s.t0 = t0;
  s.t1 = t1;
  s.tid = tid;
  return s;
}

TEST(ObsProfile, SelfTimeExcludesNestedSpans) {
  // outer [0,100) contains mid [10,60) contains leaf [20,30).
  const auto p = vab::obs::profile_spans(
      {span("outer", 0, 100), span("mid", 10, 60), span("leaf", 20, 30)});
  ASSERT_EQ(p.stages.size(), 3u);
  // Stages are alphabetical: leaf, mid, outer.
  EXPECT_EQ(p.stages[0].name, "leaf");
  EXPECT_EQ(p.stages[0].total_ns, 10u);
  EXPECT_EQ(p.stages[0].self_ns, 10u);
  EXPECT_EQ(p.stages[1].name, "mid");
  EXPECT_EQ(p.stages[1].total_ns, 50u);
  EXPECT_EQ(p.stages[1].self_ns, 40u);
  EXPECT_EQ(p.stages[2].name, "outer");
  EXPECT_EQ(p.stages[2].total_ns, 100u);
  EXPECT_EQ(p.stages[2].self_ns, 50u);
  for (const auto& s : p.stages) EXPECT_LE(s.self_ns, s.total_ns);
}

TEST(ObsProfile, FoldedStacksAggregateByPath) {
  // Two calls of inner under outer, plus one top-level inner.
  const auto p = vab::obs::profile_spans({span("outer", 0, 100),
                                          span("inner", 10, 20),
                                          span("inner", 30, 40),
                                          span("inner", 200, 250)});
  // Sorted by path: the top-level inner, outer's own self time, and the
  // two nested inner calls merged under "outer;inner".
  ASSERT_EQ(p.folded.size(), 3u);
  EXPECT_EQ(p.folded[0].first, "inner");
  EXPECT_EQ(p.folded[0].second, 50u);
  EXPECT_EQ(p.folded[1].first, "outer");
  EXPECT_EQ(p.folded[1].second, 80u);
  EXPECT_EQ(p.folded[2].first, "outer;inner");
  EXPECT_EQ(p.folded[2].second, 20u);
}

TEST(ObsProfile, ThreadsDoNotNestAcrossEachOther) {
  // Identical timestamps on two tids: each tid gets its own stack, so
  // neither span is the other's child.
  const auto p = vab::obs::profile_spans(
      {span("a", 0, 100, 1), span("b", 0, 100, 2)});
  ASSERT_EQ(p.stages.size(), 2u);
  EXPECT_EQ(p.stages[0].self_ns, 100u);
  EXPECT_EQ(p.stages[1].self_ns, 100u);
  ASSERT_EQ(p.folded.size(), 2u);
  EXPECT_EQ(p.folded[0].first, "a");
  EXPECT_EQ(p.folded[1].first, "b");
}

TEST(ObsProfile, SiblingsAtSameDepthDoNotNest) {
  const auto p = vab::obs::profile_spans(
      {span("parent", 0, 100), span("first", 10, 40), span("second", 40, 70)});
  ASSERT_EQ(p.stages.size(), 3u);
  ASSERT_EQ(p.folded.size(), 3u);
  EXPECT_EQ(p.folded[1].first, "parent;first");
  EXPECT_EQ(p.folded[2].first, "parent;second");
  // parent self = 100 - 30 - 30 (stages are alphabetical: first < parent
  // < second).
  EXPECT_EQ(p.stages[1].name, "parent");
  EXPECT_EQ(p.stages[1].self_ns, 40u);
}

TEST(ObsProfile, CallCountsAccumulatePerName) {
  std::vector<vab::obs::CollectedSpan> spans;
  for (std::uint64_t i = 0; i < 5; ++i)
    spans.push_back(span("hot", i * 10, i * 10 + 4));
  const auto p = vab::obs::profile_spans(spans);
  ASSERT_EQ(p.stages.size(), 1u);
  EXPECT_EQ(p.stages[0].calls, 5u);
  EXPECT_EQ(p.stages[0].total_ns, 20u);
  EXPECT_EQ(p.stages[0].self_ns, 20u);
}

TEST(ObsProfile, JsonCarriesSchemaManifestAndDropCount) {
  const std::string json = vab::obs::profile_json(
      vab::obs::profile_spans({span("only", 0, 10)}, 7));
  EXPECT_NE(json.find("\"schema\":\"vab-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"manifest\":{"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":7"), std::string::npos);
  EXPECT_NE(json.find("\"only\":{\"calls\":1,\"total_ns\":10,\"self_ns\":10}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"folded\":[[\"only\",10]]"), std::string::npos) << json;
}

TEST(ObsProfile, AggregatesLiveTraceRings) {
  vab::obs::clear_trace();
  vab::obs::enable_trace("");
  {
    vab::obs::TraceSpan outer("profile-outer");
    vab::obs::TraceSpan inner("profile-inner");
  }
  const auto p = vab::obs::profile_from_trace();
  vab::obs::disable_trace();
  vab::obs::clear_trace();
  std::uint64_t outer_total = 0, inner_total = 0, outer_self = 0;
  bool nested_path = false;
  for (const auto& s : p.stages) {
    if (s.name == "profile-outer") {
      outer_total = s.total_ns;
      outer_self = s.self_ns;
    }
    if (s.name == "profile-inner") inner_total = s.total_ns;
  }
  for (const auto& [path, self_ns] : p.folded) {
    (void)self_ns;
    if (path == "profile-outer;profile-inner") nested_path = true;
  }
  EXPECT_GT(outer_total, 0u);
  EXPECT_GT(inner_total, 0u);
  EXPECT_LE(inner_total, outer_total);
  EXPECT_EQ(outer_self, outer_total - inner_total);
  EXPECT_TRUE(nested_path);
}

TEST(ObsParallelProfile, WorkerSpansAggregateWithoutCrosstalk) {
  vab::obs::clear_trace();
  vab::obs::enable_trace("");
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, 512, [](std::size_t) {
    vab::obs::TraceSpan s("telemetry-worker-span");
  });
  vab::common::set_thread_count(0);
  const auto p = vab::obs::profile_from_trace();
  vab::obs::disable_trace();
  vab::obs::clear_trace();
  std::uint64_t calls = 0;
  for (const auto& s : p.stages)
    if (s.name == "telemetry-worker-span") calls = s.calls;
  EXPECT_EQ(calls, 512u);
  for (const auto& s : p.stages) EXPECT_LE(s.self_ns, s.total_ns);
}

}  // namespace
