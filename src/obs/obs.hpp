// Umbrella header for the observability layer: metrics registry, scoped
// tracing, run manifest, and the VAB_SPAN / VAB_STAGE instrumentation macros
// used throughout the library.
//
// Runtime gating (read once at startup, before main):
//   VAB_TRACE=<path>    record spans, write Chrome trace JSON to <path> at exit
//   VAB_METRICS=<path>  write the metrics snapshot JSON to <path> at exit
//   VAB_PROFILE=<path>  record spans, write the vab-profile-v1 span
//                       aggregation to <path> at exit
// Benches additionally accept `trace=<path>` / `metrics=<path>` /
// `profile=<path>` config keys (bench::init_threads wires them to
// enable_trace / enable_metrics / enable_profile).
//
// Invariant: instrumentation never touches an Rng or any computed value —
// seeded outputs are bit-identical whether observability is on or off.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/labels.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace vab::obs {

/// Reads VAB_TRACE / VAB_METRICS and arms the atexit flush. Runs
/// automatically before main (static initializer in the obs library);
/// callable again to pick up config-driven settings.
void init_from_env();

/// Arms the atexit metrics dump to `path`.
void enable_metrics(std::string path);
std::string metrics_path();

/// Arms the atexit profile dump to `path`. Profiling aggregates trace spans,
/// so this also turns span recording on (without changing the trace output
/// path if one is already configured).
void enable_profile(std::string path);
std::string profile_path();

/// Writes whatever outputs are configured (trace and/or metrics files).
/// Called automatically at process exit; callable early for long-running
/// processes that want periodic dumps.
void flush_outputs();

/// A named pipeline stage: resolved once (function-local static in the
/// VAB_STAGE macro) into a pair of counters — "stage.<name>.ns" and
/// "stage.<name>.calls" — plus the literal name used for trace spans.
class StageDef {
 public:
  explicit StageDef(const char* name)
      : name_(name),
        ns_(Registry::global().counter(std::string("stage.") + name + ".ns")),
        calls_(Registry::global().counter(std::string("stage.") + name + ".calls")) {}

  const char* name() const { return name_; }
  const Counter& ns() const { return ns_; }
  const Counter& calls() const { return calls_; }

 private:
  const char* name_;
  Counter ns_;
  Counter calls_;
};

/// RAII scope that feeds one StageDef: accumulates elapsed nanoseconds and
/// call counts into the metrics registry (always, the cost is two clock
/// reads and two relaxed adds) and records a trace span when tracing is on.
class StageScope {
 public:
  explicit StageScope(const StageDef& def) : def_(def), t0_(now_ns()) {}
  ~StageScope() {
    const std::uint64_t t1 = now_ns();
    def_.ns().add(t1 - t0_);
    def_.calls().inc();
    if (trace_enabled()) record_complete_event(def_.name(), "stage", t0_, t1);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const StageDef& def_;
  std::uint64_t t0_;
};

}  // namespace vab::obs

#define VAB_OBS_CONCAT2(a, b) a##b
#define VAB_OBS_CONCAT(a, b) VAB_OBS_CONCAT2(a, b)

/// Trace-only span (no metrics): VAB_SPAN("sim.sweep_point");
#define VAB_SPAN(name) \
  ::vab::obs::TraceSpan VAB_OBS_CONCAT(vab_span_, __LINE__)(name)
/// Timed pipeline stage: trace span + stage.<name>.{ns,calls} counters.
#define VAB_STAGE(name)                                                       \
  static const ::vab::obs::StageDef VAB_OBS_CONCAT(vab_stage_def_, __LINE__){ \
      name};                                                                  \
  ::vab::obs::StageScope VAB_OBS_CONCAT(vab_stage_, __LINE__)(                \
      VAB_OBS_CONCAT(vab_stage_def_, __LINE__))
