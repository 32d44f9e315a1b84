// Metrics registry: named counters, gauges and fixed-bucket histograms with
// per-thread shards.
//
// Concurrency model:
//  - Every recording thread owns a private shard of relaxed-atomic cells;
//    updates are a TLS lookup plus one fetch_add, with no shared mutable
//    state on the hot path (TSan-clean by construction).
//  - A snapshot locks only the registry's structural state, sums the cells
//    across shards, and serializes everything in alphabetical name order.
//
// Determinism model:
//  - Counter and histogram state is held in 64-bit integers, so cross-shard
//    summation is exact and commutative: a snapshot of a deterministic
//    workload is byte-identical for any thread count or scheduling order
//    (exercised by the ObsDeterminism test suite).
//  - Gauges are global last-write-wins doubles, intended for values set from
//    one place (effective thread count, sweep parameters), not for
//    concurrent racing writers.
//
// Handles (Counter/Gauge/Histogram) are cheap POD-ish values; instrumented
// code caches them in function-local statics so the by-name lookup happens
// once per process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vab::obs {

class Registry;

class Counter {
 public:
  void add(std::uint64_t v) const;
  void inc() const { add(1); }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_;
  std::uint32_t slot_;
};

class Gauge {
 public:
  void set(double v) const;

 private:
  friend class Registry;
  explicit Gauge(void* cell) : cell_(cell) {}
  void* cell_;  // std::atomic<double>* with a stable address inside the registry
};

class Histogram {
 public:
  /// Records one observation (bucketed by upper-bound binary search; values
  /// above the last bound land in the overflow bucket).
  void record(std::uint64_t v) const;

 private:
  friend class Registry;
  Histogram(Registry* reg, const void* def) : reg_(reg), def_(def) {}
  Registry* reg_;
  const void* def_;  // MetricDef* with a stable address inside the registry
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry all library instrumentation records
  /// into. Never destroyed (flushed from atexit handlers).
  static Registry& global();

  /// Returns the handle for `name`, creating the metric on first use.
  /// Re-registering an existing name with a different kind throws.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` are ascending bucket upper bounds; the histogram stores
  /// bounds.size() + 1 integer bucket counts (last = overflow) plus an exact
  /// integer sum of recorded values. Re-registering an existing histogram
  /// returns the original (its bounds win).
  Histogram histogram(const std::string& name, std::vector<std::uint64_t> bounds);

  /// Deterministic JSON snapshot:
  ///   {"schema":"vab-metrics-v1","manifest":{...},
  ///    "counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"bounds":[...],"counts":[...],
  ///                          "count":N,"sum":S}}}
  /// All sections are alphabetically ordered. `with_manifest` = false drops
  /// the manifest object (used by the determinism tests, where the manifest
  /// legitimately differs between runs).
  std::string snapshot_json(bool with_manifest = true) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Impl;
  Impl* impl_;
};

/// Convenience accessors on the global registry.
inline Counter counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge gauge(const std::string& name) { return Registry::global().gauge(name); }
inline Histogram histogram(const std::string& name, std::vector<std::uint64_t> bounds) {
  return Registry::global().histogram(name, std::move(bounds));
}

/// Writes the global registry snapshot (with manifest) to `path`.
/// Returns false when the file cannot be opened.
bool write_metrics(const std::string& path);

}  // namespace vab::obs
