// Bounded-cardinality labeled metrics: counter *families* that fan one
// logical name out into per-label-set series, e.g.
//   fleet.delivered{node_class=sensor,reader=3}
//
// Each distinct label set becomes an ordinary registry metric whose name is
// the family name plus the canonical `{k=v,...}` suffix (keys sorted), so
// labeled series inherit everything the registry already guarantees:
// per-thread shards, relaxed-atomic hot path, and alphabetical snapshots.
//
// Cardinality model: a family admits at most `max_series` distinct label
// sets (first registration wins, no eviction — handles stay valid forever).
// Past the cap, `with()` returns the family's shared overflow series
// ("name{overflow}") and bumps the "name.labels_dropped" counter, so a
// runaway label (per-node ids at 100k nodes) costs two counters, not
// unbounded memory — and the loss is visible in the snapshot, never silent.
//
// Determinism: when every label set fits under the cap, snapshots are
// byte-identical for any thread count (the admitted set does not depend on
// order). Past the cap, *which* sets win their own series depends on
// registration order — register series deterministically (e.g. from the
// serial setup path) before fanning out recording threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace vab::obs {

/// One label: key/value strings over [A-Za-z0-9_.-] (both non-empty).
using Label = std::pair<std::string, std::string>;
using LabelSet = std::vector<Label>;

/// Default per-family cap on distinct label sets.
inline constexpr std::size_t kDefaultMaxSeries = 64;

/// Canonical `{k=v,k2=v2}` suffix: keys sorted, charset-validated. Throws
/// std::invalid_argument on an empty set, an empty/illegal key or value, or
/// a duplicate key.
std::string encode_labels(const LabelSet& labels);

/// Counter family. Copyable handle (shared state); safe to call `with()`
/// from any thread. Callers should cache the returned Counter — resolution
/// is a mutex + map lookup, recording is the usual lock-free shard add.
class CounterFamily {
 public:
  CounterFamily(Registry& reg, std::string name,
                std::size_t max_series = kDefaultMaxSeries);

  /// The series for `labels`, creating it if the family has capacity;
  /// otherwise the overflow series (and the drop counter ticks).
  Counter with(const LabelSet& labels) const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace vab::obs
