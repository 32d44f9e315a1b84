// Scoped tracing: RAII spans recorded into per-thread ring buffers and
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// Cost model: when tracing is disabled (the default) a TraceSpan constructor
// reads one relaxed atomic and returns; nothing else happens. When enabled,
// each span costs two steady_clock reads and four relaxed-atomic stores into
// a preallocated ring slot — no locks, no allocation. Rings overwrite their
// oldest events when full; overwrites tick the `obs.trace.dropped` counter
// as they happen and the export reports droppedEvents plus a truncation
// marker, so a wrapped trace is never silently partial.
//
// Span names/categories must be string literals (or otherwise outlive the
// process): rings store the pointers, not copies.
//
// The trace clock (`now_ns`) is monotonic nanoseconds since process start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vab::obs {

/// Monotonic nanoseconds since process start (steady_clock based).
std::uint64_t now_ns();

/// Names the calling thread in trace exports (string literal required).
void set_thread_name(const char* name);

/// True when spans are being recorded.
bool trace_enabled();

/// Starts recording; `path` (may be empty) is where the atexit flush writes
/// the trace. Tests pass "" and call write_trace / trace_json directly.
void enable_trace(std::string path);
void disable_trace();
std::string trace_path();

/// Records one complete ("ph":"X") event. Exposed for instrumentation
/// helpers that already hold their own timestamps; most callers use
/// TraceSpan / VAB_SPAN instead. No-op when tracing is disabled.
void record_complete_event(const char* name, const char* cat, std::uint64_t t0_ns,
                           std::uint64_t t1_ns);

/// RAII span: records [construction, destruction) as a complete event on the
/// calling thread. Spans nest naturally; viewers infer the hierarchy from
/// containment on each thread track.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "vab")
      : name_(name), cat_(cat) {
    armed_ = trace_enabled();
    if (armed_) t0_ = now_ns();
  }
  ~TraceSpan() {
    if (armed_) record_complete_event(name_, cat_, t0_, now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t t0_ = 0;
  bool armed_ = false;
};

/// One buffered span, flattened out of the per-thread rings. Name/category
/// are the original string-literal pointers.
struct CollectedSpan {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t tid = 0;
};

/// Snapshot of every buffered span across all thread rings, sorted by begin
/// timestamp (stable). `dropped` (may be null) receives the number of spans
/// lost to ring overwrites. Feeds the trace exporter and the profiler.
std::vector<CollectedSpan> collect_trace_spans(std::uint64_t* dropped);

/// The full trace as Chrome trace-event JSON:
///   {"traceEvents":[...], "displayTimeUnit":"ms",
///    "otherData":{"manifest":{...},"droppedEvents":N,"truncated":bool}}
/// Events are sorted by begin timestamp; thread-name metadata events are
/// emitted for every thread that recorded at least one span. `truncated` is
/// true when ring overwrites dropped events (also counted by the
/// `obs.trace.dropped` metric as it happens).
std::string trace_json();

/// Writes trace_json() to `path`; false when the file cannot be opened.
bool write_trace(const std::string& path);

/// Drops all buffered events (tests). Not safe while spans are being
/// recorded concurrently.
void clear_trace();

}  // namespace vab::obs
