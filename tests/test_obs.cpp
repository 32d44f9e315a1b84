// Observability layer tests: JSON emitter escaping, metrics registry
// (concurrent updates, snapshot determinism across thread counts), scoped
// tracing (nesting, ring wrap, open-span flush), manifest embedding, and
// the on/off bit-identity invariant on a real workload.
//
// Suite names deliberately contain "Parallel"/"Determinism" so the TSan CI
// job (ctest -R 'Parallel|Determinism') exercises the concurrent paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "support/obs.hpp"

namespace {

using vab::obs::counter_value;
using vab::obs::JsonWriter;
using vab::obs::Registry;

// --- JSON emitter -----------------------------------------------------------

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(vab::obs::json_escape("plain"), "plain");
  EXPECT_EQ(vab::obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(vab::obs::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(vab::obs::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(vab::obs::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(vab::obs::json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(ObsJson, WriterNestsObjectsAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "E\"1");
  w.field("n", std::uint64_t{3});
  w.key("xs").begin_array().value(1.5).value(std::uint64_t{2}).end_array();
  w.key("sub").begin_object().field("ok", true).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"E\\\"1\",\"n\":3,\"xs\":[1.5,2],\"sub\":{\"ok\":true}}");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.field("nan", std::nan(""));
  w.end_object();
  EXPECT_EQ(w.str(), "{\"nan\":null}");
}

TEST(ObsJson, NumbersRoundTripExactly) {
  // json_number must emit a string that parses back to the identical double
  // for the whole representable range, including the values a fixed "%.12g"
  // precision silently corrupts.
  const double cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          std::nextafter(1.0, 2.0),
                          5e-324,  // smallest denormal
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          1e100,
                          -271.828182845904523536,
                          123456789012345678.0};
  for (const double v : cases) {
    const std::string s = vab::obs::json_number(v);
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << "value " << v << " serialized as '" << s << "' parsed back as "
        << back;
  }
}

TEST(ObsJson, NumbersUseShortestForm) {
  // Shortest round-trip form, not a padded fixed precision.
  EXPECT_EQ(vab::obs::json_number(0.1), "0.1");
  EXPECT_EQ(vab::obs::json_number(2.5), "2.5");
  EXPECT_EQ(vab::obs::json_number(1e100), "1e+100");
  EXPECT_EQ(vab::obs::json_number(-0.0), "-0");
  // A value "%.12g" would have truncated survives intact.
  const double fine = std::nextafter(1.0, 2.0);
  EXPECT_NE(vab::obs::json_number(fine), "1");
}

// --- metrics registry -------------------------------------------------------

TEST(ObsMetrics, CountersGaugesHistogramsRoundTrip) {
  Registry reg;
  const auto c = reg.counter("alpha.count");
  const auto g = reg.gauge("alpha.gauge");
  const auto h = reg.histogram("alpha.hist", {10, 100});
  c.add(5);
  c.inc();
  g.set(2.5);
  h.record(3);    // bucket 0 (<=10)
  h.record(50);   // bucket 1 (<=100)
  h.record(500);  // overflow bucket
  const std::string snap = reg.snapshot_json(false);
  EXPECT_NE(snap.find("\"alpha.count\":6"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"alpha.gauge\":2.5"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"bounds\":[10,100]"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"counts\":[1,1,1]"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"count\":3"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"sum\":553"), std::string::npos) << snap;
}

TEST(ObsMetrics, SnapshotIsAlphabeticallyOrdered) {
  Registry reg;
  reg.counter("zed").inc();
  reg.counter("apple").inc();
  reg.counter("mid").inc();
  const std::string snap = reg.snapshot_json(false);
  const auto a = snap.find("\"apple\"");
  const auto m = snap.find("\"mid\"");
  const auto z = snap.find("\"zed\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(ObsMetrics, ReRegisteringDifferentKindThrows) {
  Registry reg;
  reg.counter("same.name");
  EXPECT_THROW(reg.gauge("same.name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("same.name", {1}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("unsorted", {5, 1}), std::invalid_argument);
}

TEST(ObsMetrics, GlobalRegistryHasEngineMetricsAfterParallelFor) {
  vab::common::set_thread_count(4);
  std::atomic<int> sink{0};
  vab::common::parallel_for(0, 64, [&](std::size_t) { sink.fetch_add(1); });
  vab::common::set_thread_count(0);
  const std::string snap = Registry::global().snapshot_json(false);
  EXPECT_NE(snap.find("\"parallel.tasks\""), std::string::npos);
  EXPECT_NE(snap.find("\"parallel.worker_busy_ns\""), std::string::npos);
  EXPECT_NE(snap.find("\"parallel.worker_idle_ns\""), std::string::npos);
  EXPECT_NE(snap.find("\"parallel.queue_wait_ns\""), std::string::npos);
}

// --- concurrent updates (TSan target) --------------------------------------

TEST(ObsParallelMetrics, ConcurrentCounterAndHistogramUpdates) {
  Registry reg;
  const auto c = reg.counter("conc.count");
  const auto h = reg.histogram("conc.hist", {8, 64, 512});
  constexpr std::size_t kN = 10000;
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, kN, [&](std::size_t i) {
    c.add(2);
    h.record(i % 1000);
  });
  vab::common::set_thread_count(0);
  const std::string snap = reg.snapshot_json(false);
  EXPECT_NE(snap.find("\"conc.count\":" + std::to_string(2 * kN)), std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"count\":" + std::to_string(kN)), std::string::npos) << snap;
}

TEST(ObsParallelMetrics, GaugeLastWriteWinsUnderContention) {
  // Gauges are global last-write-wins doubles: with many threads racing, the
  // final value must be exactly one of the written values — never a blend,
  // a torn read, or a stale zero.
  for (const unsigned threads : {1U, 2U, 8U}) {
    Registry reg;
    const auto g = reg.gauge("lww.gauge");
    g.set(-1.0);
    vab::common::set_thread_count(threads);
    vab::common::parallel_for(0, 4096, [&](std::size_t i) {
      g.set(static_cast<double>(i));
    });
    vab::common::set_thread_count(0);
    const std::string snap = reg.snapshot_json(false);
    const auto at = snap.find("\"lww.gauge\":");
    ASSERT_NE(at, std::string::npos) << snap;
    const double v = std::strtod(snap.c_str() + at + 12, nullptr);
    EXPECT_GE(v, 0.0) << snap;   // some iteration's write landed
    EXPECT_LT(v, 4096.0) << snap;
    EXPECT_EQ(v, std::floor(v)) << snap;  // exactly one write, not a blend
  }
}

TEST(ObsDeterminismMetrics, GaugeLastWriteWinsIsDeterministicWhenValuesAgree) {
  // The engine's own gauges rely on this: every thread writes the same
  // value, so the snapshot is identical for any thread count.
  auto run = [](unsigned threads) {
    Registry reg;
    const auto g = reg.gauge("det.lww.gauge");
    vab::common::set_thread_count(threads);
    vab::common::parallel_for(0, 2048, [&](std::size_t) { g.set(42.5); });
    vab::common::set_thread_count(0);
    return reg.snapshot_json(false);
  };
  const std::string s1 = run(1);
  EXPECT_EQ(s1, run(2));
  EXPECT_EQ(s1, run(8));
  EXPECT_NE(s1.find("\"det.lww.gauge\":42.5"), std::string::npos) << s1;
}

TEST(ObsParallelMetrics, SnapshotWhileRecordingIsSafe) {
  Registry reg;
  const auto c = reg.counter("live.count");
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) (void)reg.snapshot_json(false);
  });
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, 20000, [&](std::size_t) { c.inc(); });
  vab::common::set_thread_count(0);
  stop.store(true);
  snapshotter.join();
  EXPECT_NE(reg.snapshot_json(false).find("\"live.count\":20000"), std::string::npos);
}

// --- snapshot determinism across thread counts ------------------------------

TEST(ObsDeterminismMetrics, SnapshotIdenticalAcross1_2_8Threads) {
  auto run = [](unsigned threads) {
    Registry reg;
    const auto c = reg.counter("det.count");
    const auto h = reg.histogram("det.hist", {10, 100, 1000});
    const auto g = reg.gauge("det.gauge");
    g.set(static_cast<double>(1234.5));
    vab::common::set_thread_count(threads);
    vab::common::parallel_for(0, 5000, [&](std::size_t i) {
      c.add(i % 7);
      h.record((i * 37) % 2000);
    });
    vab::common::set_thread_count(0);
    return reg.snapshot_json(false);
  };
  const std::string s1 = run(1);
  const std::string s2 = run(2);
  const std::string s8 = run(8);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);
}

// --- tracing ----------------------------------------------------------------

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vab::obs::clear_trace();
    vab::obs::enable_trace("");  // buffer only, no file
  }
  void TearDown() override {
    vab::obs::disable_trace();
    vab::obs::clear_trace();
  }

  // Extracts the numeric value following `"key":` at the first event whose
  // name field matches; returns -1 when absent.
  static double field_after(const std::string& json, const std::string& name,
                            const std::string& key) {
    const auto at = json.find("\"name\":\"" + name + "\"");
    if (at == std::string::npos) return -1.0;
    const auto k = json.find("\"" + key + "\":", at);
    if (k == std::string::npos) return -1.0;
    return std::stod(json.substr(k + key.size() + 3));
  }
};

TEST_F(ObsTraceTest, SpansNestByContainment) {
  {
    vab::obs::TraceSpan outer("outer-span");
    vab::obs::TraceSpan inner("inner-span");
  }
  const std::string json = vab::obs::trace_json();
  const double outer_ts = field_after(json, "outer-span", "ts");
  const double inner_ts = field_after(json, "inner-span", "ts");
  const double outer_dur = field_after(json, "outer-span", "dur");
  const double inner_dur = field_after(json, "inner-span", "dur");
  ASSERT_GE(outer_ts, 0.0);
  ASSERT_GE(inner_ts, 0.0);
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
}

TEST_F(ObsTraceTest, OpenSpanIsNotExportedUntilClosed) {
  auto* span = new vab::obs::TraceSpan("open-span");
  EXPECT_EQ(vab::obs::trace_json().find("open-span"), std::string::npos);
  delete span;  // closes the span
  EXPECT_NE(vab::obs::trace_json().find("open-span"), std::string::npos);
}

TEST_F(ObsTraceTest, DisabledTracingRecordsNothing) {
  vab::obs::disable_trace();
  { vab::obs::TraceSpan s("ghost-span"); }
  vab::obs::enable_trace("");
  EXPECT_EQ(vab::obs::trace_json().find("ghost-span"), std::string::npos);
}

TEST_F(ObsTraceTest, RingWrapKeepsNewestAndReportsDrops) {
  constexpr std::size_t kOver = 40000;  // > per-thread ring capacity (32768)
  const std::uint64_t dropped_before =
      counter_value(Registry::global(), "obs.trace.dropped");
  for (std::size_t i = 0; i < kOver; ++i)
    vab::obs::record_complete_event("wrap-span", "test", i, i + 1);
  EXPECT_LE(vab::obs::collect_trace_spans(nullptr).size(), std::size_t{32768});
  const std::string json = vab::obs::trace_json();
  EXPECT_NE(json.find("\"droppedEvents\":" + std::to_string(kOver - 32768)),
            std::string::npos);
  // Overwrites are observable as they happen (the live counter) and the
  // export is explicitly marked as truncated.
  EXPECT_EQ(counter_value(Registry::global(), "obs.trace.dropped") - dropped_before,
            std::uint64_t{kOver - 32768});
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
}

TEST_F(ObsTraceTest, UnwrappedTraceIsNotMarkedTruncated) {
  { vab::obs::TraceSpan s("tidy-span"); }
  const std::string json = vab::obs::trace_json();
  EXPECT_NE(json.find("\"truncated\":false"), std::string::npos);
}

TEST_F(ObsTraceTest, ExportCarriesManifestAndThreadNames) {
  vab::obs::set_manifest("test_key", "test \"quoted\" value");
  { vab::obs::TraceSpan s("manifest-span"); }
  const std::string json = vab::obs::trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(json.find("\"test_key\":\"test \\\"quoted\\\" value\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsParallelTrace, WorkersRecordSpansConcurrently) {
  vab::obs::clear_trace();
  vab::obs::enable_trace("");
  vab::common::set_thread_count(8);
  vab::common::parallel_for(0, 256, [](std::size_t) {
    vab::obs::TraceSpan s("worker-span");
  });
  vab::common::set_thread_count(0);
  const std::string json = vab::obs::trace_json();
  vab::obs::disable_trace();
  vab::obs::clear_trace();
  EXPECT_NE(json.find("worker-span"), std::string::npos);
  EXPECT_NE(json.find("pool-worker"), std::string::npos);
}

// --- stage macros ----------------------------------------------------------

TEST(ObsStage, StageScopeFeedsCountersAndSpans) {
  // Stage counters land in the global registry under stage.<name>.*.
  {
    VAB_STAGE("test.stage_macro");
  }
  const std::string snap = Registry::global().snapshot_json(false);
  EXPECT_NE(snap.find("\"stage.test.stage_macro.calls\":1"), std::string::npos);
  EXPECT_NE(snap.find("\"stage.test.stage_macro.ns\":"), std::string::npos);
}

// --- on/off bit-identity on a real workload ---------------------------------

TEST(ObsDeterminismWorkload, TracingDoesNotPerturbSeededResults) {
  const vab::sim::Scenario scenario = vab::sim::vab_river_scenario();
  const vab::sim::LinkBudget budget(scenario);
  auto run = [&] {
    vab::common::Rng rng(42);
    return budget.monte_carlo(vab::common::Meters{250.0}, 200, 256, rng);
  };
  vab::obs::disable_trace();
  const auto off = run();
  vab::obs::clear_trace();
  vab::obs::enable_trace("");
  const auto on = run();
  vab::obs::disable_trace();
  vab::obs::clear_trace();
  EXPECT_EQ(off.errors, on.errors);
  EXPECT_EQ(off.bits, on.bits);
  EXPECT_EQ(off.mean_snr_db, on.mean_snr_db);  // bit-identical doubles
}

// --- manifest ---------------------------------------------------------------

TEST(ObsManifest, DefaultsAndOverrides) {
  const auto m = vab::obs::manifest();
  EXPECT_EQ(m.at("library"), "vab");
  EXPECT_FALSE(m.at("version").empty());
  EXPECT_FALSE(m.at("build_type").empty());
  vab::obs::set_manifest("custom", "v");
  EXPECT_EQ(vab::obs::manifest().at("custom"), "v");
}

}  // namespace
