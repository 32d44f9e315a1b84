// Shared helpers for the experiment-reproduction benches: banner, table
// emission, parallel-engine setup and timing/throughput counters. The
// standard trial counts can be overridden with key=value args
// (e.g. `trials=2000 threads=8 csv=out.csv`).
#pragma once

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "dsp/simd/simd.hpp"
#include "obs/obs.hpp"

namespace vab::bench {

inline void banner(const std::string& id, const std::string& title,
                   const std::string& paper_claim) {
  std::cout << "=== " << id << ": " << title << " ===\n";
  std::cout << "paper: " << paper_claim << "\n\n";
}

inline void emit(const common::Table& table, const common::Config& cfg) {
  std::cout << table.to_string() << "\n";
  const std::string csv = cfg.get_string("csv", "");
  if (!csv.empty()) {
    table.write_csv(csv);
    std::cout << "wrote " << csv << "\n";
  }
}

/// Applies the `threads=N` config key (falling back to VAB_THREADS / the
/// hardware) to the parallel engine and returns the effective count. Also
/// wires up observability: the full config is snapshotted into the run
/// manifest, and `trace=<path>` / `metrics=<path>` / `profile=<path>` config
/// keys enable the tracer / metrics dump / span profiler exactly like
/// VAB_TRACE / VAB_METRICS / VAB_PROFILE.
inline unsigned init_threads(const common::Config& cfg) {
  // Saturate before narrowing: the engine caps the count itself, but a
  // wrapped threads=4294967297 would otherwise read as 1.
  constexpr std::size_t kWidest = std::numeric_limits<unsigned>::max();
  common::set_thread_count(
      static_cast<unsigned>(std::min(cfg.get_count("threads", 0), kWidest)));
  // Resolve SIMD dispatch eagerly so "simd_isa" is in the manifest (and in
  // every BENCH line) even for benches that never touch a DSP kernel.
  dsp::simd::active_isa();
  for (const auto& key : cfg.keys())
    obs::set_manifest("config." + key, cfg.get_string(key, ""));
  if (cfg.has("seed")) obs::set_manifest("seed", cfg.get_string("seed", ""));
  if (const std::string p = cfg.get_string("trace", ""); !p.empty())
    obs::enable_trace(p);
  if (const std::string p = cfg.get_string("metrics", ""); !p.empty())
    obs::enable_metrics(p);
  if (const std::string p = cfg.get_string("profile", ""); !p.empty())
    obs::enable_profile(p);
  return common::thread_count();
}

/// Wall-clock stopwatch for the per-sweep timing counters.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Emits one machine-parsable timing record (schema vab-bench-v2):
///   BENCH {"schema":"vab-bench-v2","bench":"E1","section":"sweep",
///          "threads":8,"elapsed_s":...,"trials":4400,"trials_per_s":...
///          [,"serial_elapsed_s":...,"speedup":...],"manifest":{...}}
/// String fields are JSON-escaped by the shared obs::JsonWriter (the v1
/// writer interpolated bench_id/section raw) and every record carries the
/// run manifest (library version, build type, seed, config snapshot).
/// Pass `serial_elapsed_s > 0` (a 1-thread re-run of the same workload) to
/// report the measured parallel speedup.
inline void emit_timing(const std::string& bench_id, const std::string& section,
                        double elapsed_s, std::size_t trials,
                        double serial_elapsed_s = 0.0) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "vab-bench-v2");
  w.field("bench", bench_id);
  w.field("section", section);
  w.field("threads", common::thread_count());
  w.field("elapsed_s", elapsed_s);
  w.field("trials", static_cast<std::uint64_t>(trials));
  if (elapsed_s > 0.0)
    w.field("trials_per_s", static_cast<double>(trials) / elapsed_s);
  if (serial_elapsed_s > 0.0 && elapsed_s > 0.0) {
    w.field("serial_elapsed_s", serial_elapsed_s);
    w.field("speedup", serial_elapsed_s / elapsed_s);
  }
  w.key("manifest").raw(obs::manifest_json());
  w.end_object();
  std::cout << "BENCH " << w.str() << "\n";
}

}  // namespace vab::bench
