#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace vab::obs {

namespace {

constexpr std::size_t kRingCapacity = 1u << 15;  // events per thread (~1 MiB)

// One buffered span. Fields are relaxed atomics so the exporter can read
// rings while other threads keep recording (publication order: fields first,
// then the ring's count with release) without tripping TSan.
struct Event {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> cat{nullptr};
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> t1{0};
};

struct Ring {
  std::uint32_t tid = 0;
  std::atomic<const char*> thread_name{nullptr};
  std::atomic<std::uint64_t> count{0};  // total recorded (wraps overwrite)
  std::vector<Event> events{kRingCapacity};
};

struct TraceState {
  const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::atomic<bool> enabled{false};
  std::atomic<std::uint32_t> next_tid{0};
  std::mutex mu;  // guards rings list and path
  std::vector<std::shared_ptr<Ring>> rings;
  std::string path;
};

// Leaked on purpose: written to by atexit handlers and read by threads whose
// lifetime we do not control.
TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

struct TlsThread {
  std::uint32_t tid;
  std::shared_ptr<Ring> ring;  // created lazily on first span
  const char* pending_name = nullptr;

  TlsThread() : tid(state().next_tid.fetch_add(1)) {}
};

TlsThread& local_thread() {
  thread_local TlsThread t;
  return t;
}

Ring& local_ring() {
  TlsThread& t = local_thread();
  if (!t.ring) {
    t.ring = std::make_shared<Ring>();
    t.ring->tid = t.tid;
    if (t.pending_name)
      t.ring->thread_name.store(t.pending_name, std::memory_order_relaxed);
    TraceState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.rings.push_back(t.ring);
  }
  return *t.ring;
}

}  // namespace

// Declared in obs.hpp (defined in obs.cpp); forward-declared here to avoid
// an include cycle with the umbrella header.
void init_from_env();

namespace {
// Static initializer: pins tid 0 to the loading (main) thread, reads the
// VAB_TRACE / VAB_METRICS env vars and arms the exit flush before main runs.
// Lives in this TU (not obs.cpp) because every instrumented call site
// references now_ns/trace_enabled, so this archive member — and with it the
// initializer — is pulled into every binary that uses the library.
const bool g_env_initialized = [] {
  (void)local_thread();
  init_from_env();
  return true;
}();
}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - state().epoch)
                                        .count());
}

void set_thread_name(const char* name) {
  TlsThread& t = local_thread();
  t.pending_name = name;
  if (t.ring) t.ring->thread_name.store(name, std::memory_order_relaxed);
}

bool trace_enabled() { return state().enabled.load(std::memory_order_relaxed); }

void enable_trace(std::string path) {
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.path = std::move(path);
  }
  s.enabled.store(true, std::memory_order_relaxed);
}

void disable_trace() { state().enabled.store(false, std::memory_order_relaxed); }

std::string trace_path() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.path;
}

void record_complete_event(const char* name, const char* cat, std::uint64_t t0_ns,
                           std::uint64_t t1_ns) {
  if (!trace_enabled()) return;
  Ring& ring = local_ring();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  if (n >= kRingCapacity) {
    // Overwriting the oldest event: make the loss observable as it happens,
    // not just in the export. Resolved once (magic static), relaxed add.
    static const Counter dropped_ctr = Registry::global().counter("obs.trace.dropped");
    dropped_ctr.inc();
  }
  Event& e = ring.events[n % kRingCapacity];
  e.name.store(name, std::memory_order_relaxed);
  e.cat.store(cat, std::memory_order_relaxed);
  e.t0.store(t0_ns, std::memory_order_relaxed);
  e.t1.store(t1_ns, std::memory_order_relaxed);
  ring.count.store(n + 1, std::memory_order_release);
}

std::vector<CollectedSpan> collect_trace_spans(std::uint64_t* dropped) {
  TraceState& s = state();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    rings = s.rings;
  }

  std::vector<CollectedSpan> flat;
  std::uint64_t lost = 0;
  for (const auto& ring : rings) {
    const std::uint64_t total = ring->count.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(total, kRingCapacity);
    lost += total - kept;
    for (std::uint64_t i = total - kept; i < total; ++i) {
      const Event& e = ring->events[i % kRingCapacity];
      CollectedSpan f;
      f.name = e.name.load(std::memory_order_relaxed);
      f.cat = e.cat.load(std::memory_order_relaxed);
      f.t0 = e.t0.load(std::memory_order_relaxed);
      f.t1 = e.t1.load(std::memory_order_relaxed);
      f.tid = ring->tid;
      if (f.name) flat.push_back(f);
    }
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) {
                     return a.t0 < b.t0;
                   });
  if (dropped) *dropped = lost;
  return flat;
}

std::string trace_json() {
  TraceState& s = state();
  std::vector<std::pair<std::uint32_t, const char*>> names;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& ring : s.rings) {
      const char* tname = ring->thread_name.load(std::memory_order_relaxed);
      names.emplace_back(ring->tid,
                         tname ? tname : (ring->tid == 0 ? "main" : nullptr));
    }
  }
  std::uint64_t dropped = 0;
  const std::vector<CollectedSpan> flat = collect_trace_spans(&dropped);

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& [tid, tname] : names) {
    if (!tname) continue;
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", tid);
    w.key("args").begin_object().field("name", tname).end_object();
    w.end_object();
  }
  for (const CollectedSpan& f : flat) {
    w.begin_object();
    w.field("name", f.name);
    w.field("cat", f.cat ? f.cat : "vab");
    w.field("ph", "X");
    // Chrome trace timestamps/durations are microseconds.
    w.field("ts", static_cast<double>(f.t0) / 1000.0);
    w.field("dur", static_cast<double>(f.t1 - f.t0) / 1000.0);
    w.field("pid", 1);
    w.field("tid", f.tid);
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.key("manifest").raw(manifest_json());
  w.field("droppedEvents", dropped);
  w.field("truncated", dropped > 0);
  w.end_object();
  w.end_object();
  return w.take();
}

bool write_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << trace_json() << "\n";
  return static_cast<bool>(f);
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  for (const auto& ring : s.rings) ring->count.store(0, std::memory_order_relaxed);
}

}  // namespace vab::obs
