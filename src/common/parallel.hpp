// Parallel trial-execution engine: a small persistent thread pool behind
// deterministic `parallel_for` / `parallel_reduce` helpers.
//
// Determinism contract:
//  - `parallel_for(begin, end, body)` invokes `body(i)` exactly once for
//    every i in [begin, end). Bodies that write only to per-index slots
//    therefore produce results independent of the thread count and of the
//    scheduling order.
//  - `parallel_reduce` partitions the range into fixed-size chunks whose
//    boundaries depend only on the range (never on the thread count),
//    reduces each chunk serially in index order, and folds the chunk
//    partials in chunk order. Floating-point accumulation is thus
//    bit-identical for any thread count, including 1.
//
// Thread count resolution (highest priority first):
//  1. `set_thread_count(n)` with n > 0 (benches expose this as `threads=N`),
//  2. the `VAB_THREADS` environment variable,
//  3. `std::thread::hardware_concurrency()`.
// `set_thread_count(0)` returns to automatic resolution. A count of 1 runs
// every loop inline on the calling thread (no pool involvement at all).
//
// Workers are started lazily and shared process-wide. A `parallel_for`
// issued from inside a worker thread (nested parallelism) runs serially
// inline, so nesting can never deadlock the pool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace vab::common {

/// max(1, std::thread::hardware_concurrency()).
unsigned hardware_thread_count();

/// Effective thread count after override/env/hardware resolution.
unsigned thread_count();

/// Overrides the thread count; 0 restores automatic (VAB_THREADS/hardware).
void set_thread_count(unsigned n);

/// Runs body(i) for every i in [begin, end), fanned out over the pool.
/// The first exception thrown by any body is rethrown on the caller after
/// the whole loop has quiesced; remaining work is abandoned best-effort.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Contiguous near-equal partition of [0, n) into `count` pieces: piece
/// `index` gets {begin, end} with the first n % count pieces one element
/// longer. Depends only on (n, index, count), so a sharded campaign covers
/// exactly the same global indices however the pieces are distributed.
inline std::pair<std::size_t, std::size_t> split_range(std::size_t n,
                                                       std::size_t index,
                                                       std::size_t count) {
  const std::size_t base = n / count;
  const std::size_t rem = n % count;
  const std::size_t begin = index * base + std::min(index, rem);
  return {begin, begin + base + (index < rem ? 1 : 0)};
}

/// Chunk size used by parallel_reduce: depends only on the range length so
/// chunk boundaries (and therefore fold order) are thread-count-invariant.
inline std::size_t reduce_grain(std::size_t n) {
  return std::clamp<std::size_t>(n / 1024, 1, 4096);
}

/// Deterministic map/reduce: `map(i) -> T`, `combine(T, T) -> T`.
/// `combine` is applied serially in index order within fixed chunks and
/// then across chunk partials in chunk order, so the result is
/// bit-identical for any thread count (combine need not be commutative,
/// only associative over the fixed fold shape).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T init, Map&& map,
                  Combine&& combine) {
  if (end <= begin) return init;
  const std::size_t n = end - begin;
  const std::size_t grain = reduce_grain(n);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  std::vector<T> partials(n_chunks, init);
  parallel_for(0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    T acc = partials[c];
    for (std::size_t i = lo; i < hi; ++i) acc = combine(std::move(acc), map(i));
    partials[c] = std::move(acc);
  });
  T out = std::move(partials[0]);
  for (std::size_t c = 1; c < n_chunks; ++c)
    out = combine(std::move(out), std::move(partials[c]));
  return out;
}

}  // namespace vab::common
