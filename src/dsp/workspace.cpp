#include "dsp/workspace.hpp"

#include "obs/metrics.hpp"

namespace vab::dsp {

namespace {

const obs::Counter& grow_counter() {
  static const obs::Counter c = obs::counter("dsp.workspace.grow_bytes");
  return c;
}

const obs::Counter& borrow_counter() {
  static const obs::Counter c = obs::counter("dsp.workspace.borrows");
  return c;
}

const obs::Gauge& bytes_gauge() {
  static const obs::Gauge g = obs::gauge("dsp.workspace.bytes");
  return g;
}

}  // namespace

Workspace& Workspace::local() {
  thread_local Workspace ws;
  return ws;
}

void Workspace::note_growth(std::size_t old_cap_bytes, std::size_t new_cap_bytes) {
  if (new_cap_bytes <= old_cap_bytes) return;
  const std::size_t delta = new_cap_bytes - old_cap_bytes;
  bytes_reserved_ += delta;
  grow_bytes_ += delta;
  grow_counter().add(static_cast<std::uint64_t>(delta));
  bytes_gauge().set(static_cast<double>(bytes_reserved_));
}

template <class V>
Workspace::Lease<V> Workspace::take(std::vector<V>& pool, std::size_t n, bool zero) {
  ++borrows_;
  borrow_counter().inc();
  V v;
  if (!pool.empty()) {
    v = std::move(pool.back());
    pool.pop_back();
  }
  const std::size_t old_cap = v.capacity();
  if (zero)
    v.assign(n, typename V::value_type{});
  else
    v.resize(n);
  note_growth(old_cap * sizeof(typename V::value_type),
              v.capacity() * sizeof(typename V::value_type));
  return Lease<V>(this, std::move(v));
}

Workspace::Lease<rvec> Workspace::take_r(std::size_t n) { return take(pool_r_, n); }
Workspace::Lease<cvec> Workspace::take_c(std::size_t n) { return take(pool_c_, n); }
Workspace::Lease<bitvec> Workspace::take_b(std::size_t n) { return take(pool_b_, n); }
Workspace::Lease<cvec> Workspace::take_c_for_overwrite(std::size_t n) {
  return take(pool_c_, n, /*zero=*/false);
}

void Workspace::give(rvec&& v) { pool_r_.push_back(std::move(v)); }
void Workspace::give(cvec&& v) { pool_c_.push_back(std::move(v)); }
void Workspace::give(bitvec&& v) { pool_b_.push_back(std::move(v)); }

}  // namespace vab::dsp
