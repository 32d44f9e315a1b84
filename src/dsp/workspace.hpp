// Thread-local scratch-buffer arena for the DSP hot path.
//
// Every waveform trial used to heap-allocate its full chain of scratch
// vectors (transmit tone, channel outputs, baseband, correlation buffers,
// noise spectra, ...). The Workspace keeps freelists of rvec/cvec/bitvec
// buffers per thread: a `take_*` call pops a recycled vector, sizes it with
// assign() (which only touches the allocator while the high-water mark is
// still growing) and hands it out as an RAII lease that returns the buffer
// on destruction. In the Monte-Carlo steady state — same scenario, same
// trial shape — every lease is served from capacity already reserved, so
// the trial loop performs zero arena allocations (`grow_bytes()` stays
// flat; the obs counter `dsp.workspace.grow_bytes` tracks it globally).
//
// Concurrency model: the arena is strictly thread-local (Workspace::local).
// Leases must not be handed to another thread. Determinism model: `take_*`
// buffers are always assign()-initialized, so recycled capacity can never
// leak values from a previous trial into a new one. `take_c_for_overwrite`
// skips that fill for callers that write every element before reading one
// (noise spectra, FFT gathers); what they read is then theirs alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace vab::dsp {

class Workspace {
 public:
  /// RAII ownership of one pooled buffer; returns it to the workspace on
  /// destruction. Move-only. Dereference for the underlying vector.
  template <class V>
  class Lease {
   public:
    Lease(Workspace* ws, V&& v) : ws_(ws), v_(std::move(v)) {}
    Lease(Lease&& o) noexcept : ws_(o.ws_), v_(std::move(o.v_)) { o.ws_ = nullptr; }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        ws_ = o.ws_;
        v_ = std::move(o.v_);
        o.ws_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    V& operator*() { return v_; }
    V* operator->() { return &v_; }
    const V& operator*() const { return v_; }
    const V* operator->() const { return &v_; }

   private:
    void release() {
      if (ws_) ws_->give(std::move(v_));
      ws_ = nullptr;
    }
    Workspace* ws_;
    V v_;
  };

  /// The calling thread's arena.
  static Workspace& local();

  /// Borrows a buffer of exactly `n` elements, zero-initialized.
  Lease<rvec> take_r(std::size_t n);
  Lease<cvec> take_c(std::size_t n);
  Lease<bitvec> take_b(std::size_t n);
  /// Borrows a buffer of exactly `n` elements with unspecified contents: a
  /// recycled buffer keeps the values it held, and only elements past its
  /// old size are zeroed. The caller must write every element before
  /// reading it.
  Lease<cvec> take_c_for_overwrite(std::size_t n);

  /// Bytes of element capacity currently owned by this thread's arena
  /// (pooled + leased), i.e. the high-water mark of scratch demand.
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// Cumulative bytes of capacity growth. Flat across identical workloads
  /// means the steady state allocates nothing from the arena.
  std::uint64_t grow_bytes() const { return grow_bytes_; }
  /// Number of take_* calls served.
  std::uint64_t borrows() const { return borrows_; }

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

 private:
  template <class V>
  friend class Lease;

  /// Pops a pooled buffer (or makes one) and sizes it to `n`: every element
  /// zeroed when `zero`, else only those past the buffer's old size.
  template <class V>
  Lease<V> take(std::vector<V>& pool, std::size_t n, bool zero = true);
  void give(rvec&& v);
  void give(cvec&& v);
  void give(bitvec&& v);
  void note_growth(std::size_t old_cap_bytes, std::size_t new_cap_bytes);

  std::vector<rvec> pool_r_;
  std::vector<cvec> pool_c_;
  std::vector<bitvec> pool_b_;
  std::size_t bytes_reserved_ = 0;
  std::uint64_t grow_bytes_ = 0;
  std::uint64_t borrows_ = 0;
};

}  // namespace vab::dsp
