#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/manifest.hpp"

namespace vab::obs {

namespace {

// One recording thread's private cell block. Cells are relaxed atomics so a
// concurrent snapshot reads torn-free values without stopping the writers;
// only the owner thread ever writes. The deque gives stable cell addresses
// across growth; growth itself is serialized with snapshots by `mu`.
struct Shard {
  std::mutex mu;  // guards growth and size reads from the snapshot thread
  std::deque<std::atomic<std::uint64_t>> cells;

  std::atomic<std::uint64_t>& cell(std::uint32_t slot) {
    if (slot >= cells.size()) {
      std::lock_guard<std::mutex> lk(mu);
      while (cells.size() <= slot) cells.emplace_back(0);
    }
    return cells[slot];
  }
};

enum class Kind { kCounter, kGauge, kHistogram };

struct MetricDef {
  std::string name;
  Kind kind;
  std::uint32_t index = 0;     // position in defs-by-index vector
  std::uint32_t slot = 0;      // first shard cell (counter/histogram)
  std::uint32_t n_cells = 0;   // shard cells reserved
  std::vector<std::uint64_t> bounds;  // histogram bucket upper bounds
  std::atomic<double> gauge{0.0};     // gauges are global, not sharded
};

std::atomic<std::uint64_t> g_next_registry_id{1};

// Per-thread shard cache. The single-entry fast path covers the common case
// of one (global) registry; the vector handles tests that create their own.
// Entries hold shared_ptr so a shard outlives both its thread and its
// registry, whichever goes first.
struct TlsShards {
  std::uint64_t last_id = 0;
  Shard* last = nullptr;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<Shard>>> all;
};
thread_local TlsShards t_shards;

}  // namespace

struct Registry::Impl {
  const std::uint64_t id = g_next_registry_id.fetch_add(1);
  mutable std::mutex mu;
  std::map<std::string, std::uint32_t> by_name;   // name -> index
  std::vector<std::unique_ptr<MetricDef>> defs;   // stable addresses
  std::vector<std::shared_ptr<Shard>> shards;
  std::uint32_t next_slot = 0;

  MetricDef& intern(const std::string& name, Kind kind, std::uint32_t n_cells,
                    std::vector<std::uint64_t> bounds) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      MetricDef& d = *defs[it->second];
      if (d.kind != kind)
        throw std::invalid_argument("metric '" + name +
                                    "' re-registered as a different kind");
      return d;
    }
    auto def = std::make_unique<MetricDef>();
    def->name = name;
    def->kind = kind;
    def->index = static_cast<std::uint32_t>(defs.size());
    def->slot = next_slot;
    def->n_cells = n_cells;
    def->bounds = std::move(bounds);
    next_slot += n_cells;
    by_name.emplace(name, def->index);
    defs.push_back(std::move(def));
    return *defs.back();
  }

  Shard& local_shard() {
    if (t_shards.last_id == id) return *t_shards.last;
    for (auto& [sid, sp] : t_shards.all)
      if (sid == id) {
        t_shards.last_id = id;
        t_shards.last = sp.get();
        return *sp;
      }
    auto sp = std::make_shared<Shard>();
    {
      std::lock_guard<std::mutex> lk(mu);
      shards.push_back(sp);
    }
    t_shards.all.emplace_back(id, sp);
    t_shards.last_id = id;
    t_shards.last = sp.get();
    return *sp;
  }

  std::uint64_t sum_cell(std::uint32_t slot) const {
    // Caller holds mu (shard list stable); each shard's size is read under
    // its own mutex so growth on the owner thread cannot race.
    std::uint64_t acc = 0;
    for (const auto& sp : shards) {
      std::lock_guard<std::mutex> lk(sp->mu);
      if (slot < sp->cells.size()) acc += sp->cells[slot].load(std::memory_order_relaxed);
    }
    return acc;
  }
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  // Leaked on purpose: atexit flush handlers read it after static
  // destructors of other translation units have started running.
  static Registry* r = new Registry;
  return *r;
}

Counter Registry::counter(const std::string& name) {
  return Counter(this, impl_->intern(name, Kind::kCounter, 1, {}).slot);
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(&impl_->intern(name, Kind::kGauge, 0, {}).gauge);
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<std::uint64_t> bounds) {
  if (!std::is_sorted(bounds.begin(), bounds.end()))
    throw std::invalid_argument("histogram bounds must be ascending");
  // buckets (bounds + overflow) followed by the value-sum cell.
  const auto n_cells = static_cast<std::uint32_t>(bounds.size() + 2);
  return Histogram(this, &impl_->intern(name, Kind::kHistogram, n_cells,
                                        std::move(bounds)));
}

void Counter::add(std::uint64_t v) const {
  reg_->impl_->local_shard().cell(slot_).fetch_add(v, std::memory_order_relaxed);
}

void Gauge::set(double v) const {
  static_cast<std::atomic<double>*>(cell_)->store(v, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t v) const {
  const auto* def = static_cast<const MetricDef*>(def_);
  const auto bucket = static_cast<std::uint32_t>(
      std::upper_bound(def->bounds.begin(), def->bounds.end(), v) - def->bounds.begin());
  Shard& shard = reg_->impl_->local_shard();
  // Make sure the whole block exists so the sum cell is addressable.
  shard.cell(def->slot + def->n_cells - 1);
  shard.cells[def->slot + bucket].fetch_add(1, std::memory_order_relaxed);
  shard.cells[def->slot + def->n_cells - 1].fetch_add(v, std::memory_order_relaxed);
}

std::string Registry::snapshot_json(bool with_manifest) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  JsonWriter w;
  w.begin_object();
  w.field("schema", "vab-metrics-v1");
  if (with_manifest) {
    w.key("manifest");
    w.raw(manifest_json());
  }

  // by_name is a std::map, so each section comes out alphabetically.
  w.key("counters").begin_object();
  for (const auto& [name, idx] : impl_->by_name) {
    const MetricDef& d = *impl_->defs[idx];
    if (d.kind == Kind::kCounter) w.field(name, impl_->sum_cell(d.slot));
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, idx] : impl_->by_name) {
    const MetricDef& d = *impl_->defs[idx];
    if (d.kind == Kind::kGauge)
      w.field(name, d.gauge.load(std::memory_order_relaxed));
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, idx] : impl_->by_name) {
    const MetricDef& d = *impl_->defs[idx];
    if (d.kind != Kind::kHistogram) continue;
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const std::uint64_t b : d.bounds) w.value(b);
    w.end_array();
    std::uint64_t total = 0;
    w.key("counts").begin_array();
    for (std::uint32_t i = 0; i + 1 < d.n_cells; ++i) {
      const std::uint64_t c = impl_->sum_cell(d.slot + i);
      total += c;
      w.value(c);
    }
    w.end_array();
    w.field("count", total);
    w.field("sum", impl_->sum_cell(d.slot + d.n_cells - 1));
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.take();
}

bool write_metrics(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << Registry::global().snapshot_json() << "\n";
  return static_cast<bool>(f);
}

}  // namespace vab::obs
