// Width-generic kernel templates over an Arch (arch_scalar / arch_avx2).
// Each kernel vectorizes across independent outputs — every lane
// runs the full scalar operation sequence for its own output — and hands any
// remainder tail to the ScalarArch instantiation of the same helper, so
// "scalar reference" and "SIMD remainder" are one code path.
//
// Included only by the simd_{scalar,avx2}.cpp translation units, each
// compiled with exactly its ISA's flags (and -ffp-contract=off, like all of
// vab_dsp: a contracted FMA would change result bits and break the identity
// contract).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsp/simd/arch_scalar.hpp"

namespace vab::dsp::simd::detail {

/// One radix-2 butterfly over kLanes adjacent (lo, hi) pairs.
template <class A>
inline void fft_butterfly(cplx* lo, cplx* hi, const cplx* tw) {
  const typename A::V u = A::load(lo);
  const typename A::V v = A::cmul(A::load(hi), A::load(tw));
  A::store(lo, A::add(u, v));
  A::store(hi, A::sub(u, v));
}

template <class A>
void fft_stages_k(cplx* x, std::size_t n, const cplx* twiddle) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const cplx* tw = twiddle + (len / 2 - 1);
    const std::size_t half = len / 2;
    if (half >= A::kLanes) {
      // half is a power of two >= kLanes, so rows split evenly: no tail.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; k += A::kLanes)
          fft_butterfly<A>(x + i + k, x + i + k + half, tw + k);
    } else {
      // Narrow early stages (len=2 under AVX2): width-1, same butterfly.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; ++k)
          fft_butterfly<ScalarArch>(x + i + k, x + i + k + half, tw + k);
    }
  }
}

/// std::mt19937_64's twist over the whole state. The first n-m words read
/// only words the loop has not written yet, and from k = n-m on `far` reads
/// words the first loop already wrote, so each kLanes-wide step stores what
/// the sequential loop would; the last word wraps to the new x[0].
template <class A>
void mt_twist_k(std::uint64_t* x) {
  using Mt = common::Mt19937_64;
  using S = ScalarDrawArch;
  constexpr std::size_t kN = Mt::kWords, kM = Mt::kShift;
  static_assert((kN - kM) % A::kLanes == 0, "first twist loop has no tail");
  std::size_t k = 0;
  for (; k < kN - kM; k += A::kLanes)
    A::store_u(x + k, A::twist_word(A::load_u(x + k), A::load_u(x + k + 1),
                                    A::load_u(x + k + kM)));
  for (; k + A::kLanes <= kN - 1; k += A::kLanes)
    A::store_u(x + k, A::twist_word(A::load_u(x + k), A::load_u(x + k + 1),
                                    A::load_u(x + (k - (kN - kM)))));
  for (; k < kN - 1; ++k) x[k] = S::twist_word(x[k], x[k + 1], x[k - (kN - kM)]);
  x[kN - 1] = S::twist_word(x[kN - 1], x[0], x[kM - 1]);
}

/// t[i] = 2 * canonical(temper(w[i])) - 1 for i in [0, n): the polar
/// method's candidate coordinates, in stream order.
template <class A>
void signed_units_k(const std::uint64_t* w, std::size_t n, double* t) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store(t + i, A::signed_unit(A::temper(A::load_u(w + i))));
  for (; i < n; ++i) t[i] = ScalarDrawArch::signed_unit(ScalarDrawArch::temper(w[i]));
}

/// Accepted polar pairs of one engine block, compacted in stream order.
/// Sized for a block's 156 pairs (313 words with a carried one) plus the
/// kLanes - 1 values a vector compaction may write past the end.
struct PolarPairs {
  static constexpr std::size_t kCap = common::Mt19937_64::kWords / 2 + 8;
  double x[kCap], y[kCap], r2[kCap], log_r2[kCap];
  double pair[kCap];  ///< index of each accepted pair within the block
};

/// Tests the `pairs` candidate pairs of t (x0 y0 x1 y1 ...) and appends the
/// accepted ones to `acc`, without branching on the outcome. Returns the
/// number accepted.
template <class A>
std::size_t accept_pairs_k(const double* t, std::size_t pairs, PolarPairs& acc) {
  std::size_t n = 0;
  std::size_t p = 0;
  const auto take = [&](auto arch, const double* at, std::size_t first) {
    using B = decltype(arch);
    typename B::D x, y;
    B::load_pairs(at, x, y);
    const typename B::D r2 = B::radius2(x, y);
    const unsigned mask = B::accept(r2);
    B::compact(acc.x + n, x, mask);
    B::compact(acc.y + n, y, mask);
    B::compact(acc.pair + n, B::iota(first), mask);
    n += B::compact(acc.r2 + n, r2, mask);
  };
  for (; p + A::kLanes <= pairs; p += A::kLanes) take(A{}, t + 2 * p, p);
  for (; p < pairs; ++p) take(ScalarDrawArch{}, t + 2 * p, p);
  return n;
}

/// Turns the first `use` accepted pairs into normals: out gets y*mult then
/// x*mult per pair, as the two sequential gaussian() calls return them, up
/// to `room` values. When `room` is odd the last pair's x*mult is returned
/// for the polar cache instead. glibc's log runs once per pair, the IEEE
/// divide and square root lane-parallel.
template <class A>
void polar_normals_k(PolarPairs& acc, std::size_t use, double* out, std::size_t room,
                     double& saved) {
  for (std::size_t j = 0; j < use; ++j) acc.log_r2[j] = std::log(acc.r2[j]);
  const auto pair_out = [&](auto arch, std::size_t j) {
    using B = decltype(arch);
    const typename B::D mult =
        B::polar_mult(B::load(acc.log_r2 + j), B::load(acc.r2 + j));
    return std::make_pair(B::mul(B::load(acc.y + j), mult),
                          B::mul(B::load(acc.x + j), mult));
  };
  std::size_t j = 0;
  for (; j + A::kLanes <= use && 2 * (j + A::kLanes) <= room; j += A::kLanes) {
    const auto [first, second] = pair_out(A{}, j);
    A::store_interleaved(out + 2 * j, A::unit_normal(first), A::unit_normal(second));
  }
  for (; j < use; ++j) {
    const auto [first, second] = pair_out(ScalarDrawArch{}, j);
    out[2 * j] = ScalarDrawArch::unit_normal(first);
    if (2 * j + 1 < room) {
      out[2 * j + 1] = ScalarDrawArch::unit_normal(second);
    } else {
      saved = second;
    }
  }
}

/// out[0..n) = n successive gaussian() draws of the Rng behind `st`, which
/// is left exactly as those calls would leave it: a cached value is used
/// first, every candidate pair consumes two words (a pair may straddle a
/// twist), the engine stops right after the last pair used, and an odd
/// count leaves that pair's second value cached.
template <class A>
void fill_gaussian_k(common::RngRawState st, double* out, std::size_t n) {
  using Mt = common::Mt19937_64;
  std::size_t k = 0;
  if (n > 0 && st.has_saved_normal) {
    st.has_saved_normal = false;
    out[k++] = ScalarDrawArch::unit_normal(st.saved_normal);
  }
  double t[Mt::kWords + 1] = {};  // t[0] holds a word carried over a twist
  PolarPairs acc{};
  std::size_t carried = 0;
  while (k < n) {
    if (st.pos >= Mt::kWords) {
      mt_twist_k<A>(st.words);
      st.pos = 0;
    }
    const std::size_t first = st.pos;
    const std::size_t m = carried + (Mt::kWords - first);
    signed_units_k<A>(st.words + first, Mt::kWords - first, t + carried);
    const std::size_t accepted = accept_pairs_k<A>(t, m / 2, acc);
    const std::size_t room = n - k;
    const std::size_t need = (room + 1) / 2;
    const std::size_t use = std::min(accepted, need);
    polar_normals_k<A>(acc, use, out + k, room, st.saved_normal);
    if (use == need) {
      const auto last_pair = static_cast<std::size_t>(acc.pair[use - 1]);
      st.pos = first + 2 * (last_pair + 1) - carried;
      st.has_saved_normal = room % 2 == 1;
      return;
    }
    k += 2 * use;
    st.pos = Mt::kWords;
    carried = m % 2;
    if (carried) t[0] = t[m - 1];
  }
}

/// out[i] = sum over s < steps of w[s] * x[off[s] + i], i in [0, n), summed
/// in s order from 0.0 with a separate multiply and add per term. Eight
/// vectors of outputs share each broadcast weight: eight independent add
/// chains keep the adder busy across its latency. The tail runs the same
/// sequence one output at a time.
template <class A>
void step_sum_k(const double* x, const std::size_t* off, const double* w,
                std::size_t steps, double* out, std::size_t n) {
  using S = ScalarDrawArch;
  using D = typename A::D;
  constexpr std::size_t kL = A::kLanes, kAcc = 8;
  std::size_t i = 0;
  for (; i + kAcc * kL <= n; i += kAcc * kL) {
    D a0 = A::set1(0.0), a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    for (std::size_t s = 0; s < steps; ++s) {
      const D ws = A::set1(w[s]);
      const double* p = x + off[s] + i;
      a0 = A::add(a0, A::mul(ws, A::load(p)));
      a1 = A::add(a1, A::mul(ws, A::load(p + kL)));
      a2 = A::add(a2, A::mul(ws, A::load(p + 2 * kL)));
      a3 = A::add(a3, A::mul(ws, A::load(p + 3 * kL)));
      a4 = A::add(a4, A::mul(ws, A::load(p + 4 * kL)));
      a5 = A::add(a5, A::mul(ws, A::load(p + 5 * kL)));
      a6 = A::add(a6, A::mul(ws, A::load(p + 6 * kL)));
      a7 = A::add(a7, A::mul(ws, A::load(p + 7 * kL)));
    }
    double* o = out + i;
    A::store(o, a0);
    A::store(o + kL, a1);
    A::store(o + 2 * kL, a2);
    A::store(o + 3 * kL, a3);
    A::store(o + 4 * kL, a4);
    A::store(o + 5 * kL, a5);
    A::store(o + 6 * kL, a6);
    A::store(o + 7 * kL, a7);
  }
  for (; i < n; ++i) {
    S::D acc = S::set1(0.0);
    for (std::size_t s = 0; s < steps; ++s)
      acc = S::add(acc, S::mul(S::set1(w[s]), S::load(x + off[s] + i)));
    S::store(out + i, acc);
  }
}

// Instantiates the per-ISA entry points declared in kernels_decl.hpp for
// `arch` under name suffix `suffix`; used once per simd_*.cpp TU.
#define VAB_SIMD_DEFINE_KERNELS(suffix, arch, draw_arch)                       \
  void fft_stages_##suffix(cplx* x, std::size_t n, const cplx* twiddle) {      \
    fft_stages_k<arch>(x, n, twiddle);                                         \
  }                                                                            \
  void fill_gaussian_##suffix(common::RngRawState st, double* out,             \
                              std::size_t n) {                                 \
    fill_gaussian_k<draw_arch>(st, out, n);                                    \
  }                                                                            \
  void step_sum_##suffix(const double* x, const std::size_t* off,              \
                         const double* w, std::size_t steps, double* out,      \
                         std::size_t n) {                                      \
    step_sum_k<draw_arch>(x, off, w, steps, out, n);                           \
  }

}  // namespace vab::dsp::simd::detail
