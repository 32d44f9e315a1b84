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
#include "dsp/simd/simd.hpp"

namespace vab::dsp::simd::detail {

/// One radix-2 butterfly over kLanes adjacent (lo, hi) pairs.
template <class A>
inline void fft_butterfly(cplx* lo, cplx* hi, const cplx* tw) {
  const typename A::V u = A::load(lo);
  const typename A::V v = A::cmul(A::load(hi), A::load(tw));
  A::store(lo, A::add(u, v));
  A::store(hi, A::sub(u, v));
}

/// Stages `len` and 2 len on one 4-point group per lane: a, b, c, d are
/// x[k], x[k + len/2], x[k + len], x[k + 3 len/2] of a 2 len-point block.
/// Stage len pairs (a, b) and (c, d) on twiddle w1 = tw_len[k]; stage 2 len
/// then pairs (a, c) on w2 = tw_2len[k] and (b, d) on w3 = tw_2len[k +
/// len/2]: the four butterflies the two radix-2 stages apply to these
/// points, in their order.
template <class A>
[[gnu::always_inline]] inline void radix22(typename A::V& a, typename A::V& b,
                                           typename A::V& c, typename A::V& d,
                                           typename A::V w1, typename A::V w2,
                                           typename A::V w3) {
  const typename A::V v0 = A::cmul(b, w1);
  const typename A::V a1 = A::add(a, v0);
  const typename A::V b1 = A::sub(a, v0);
  const typename A::V v1 = A::cmul(d, w1);
  const typename A::V c1 = A::add(c, v1);
  const typename A::V d1 = A::sub(c, v1);
  const typename A::V vc = A::cmul(c1, w2);
  a = A::add(a1, vc);
  c = A::sub(a1, vc);
  const typename A::V vd = A::cmul(d1, w3);
  b = A::add(b1, vd);
  d = A::sub(b1, vd);
}

/// radix22 on kLanes consecutive groups k of a block at `x` (len/2 >=
/// kLanes): contiguous loads of each point and of the twiddles.
template <class A>
[[gnu::always_inline]] inline void fft_radix22(cplx* x, std::size_t half,
                                               std::size_t len, const cplx* tw1,
                                               const cplx* tw2) {
  typename A::V a = A::load(x), b = A::load(x + half), c = A::load(x + len),
                d = A::load(x + len + half);
  radix22<A>(a, b, c, d, A::load(tw1), A::load(tw2), A::load(tw2 + half));
  A::store(x, a);
  A::store(x + half, b);
  A::store(x + len, c);
  A::store(x + len + half, d);
}

/// The first pass (stages 2 and 4) on kLanes consecutive 4-point blocks at
/// `x`: each lane one block x[4l .. 4l + 4), every lane on the same three
/// twiddles.
template <class A>
[[gnu::always_inline]] inline void fft_radix22_first(cplx* x, const cplx* twiddle) {
  typename A::V a = A::load_strided(x, 4), b = A::load_strided(x + 1, 4),
                c = A::load_strided(x + 2, 4), d = A::load_strided(x + 3, 4);
  radix22<A>(a, b, c, d, A::splat(twiddle[0]), A::splat(twiddle[1]),
             A::splat(twiddle[2]));
  A::store_strided(x, 4, a);
  A::store_strided(x + 1, 4, b);
  A::store_strided(x + 2, 4, c);
  A::store_strided(x + 3, 4, d);
}

/// Radix-2 DIT stages len = 2, 4, ..., n, two per pass (radix-2^2) and a
/// last single stage when log2(n) is odd. The first pass (len = 2, one
/// group per block) puts a block in each lane; later passes put consecutive
/// groups of a block in the lanes.
template <class A>
void fft_stages_k(cplx* x, std::size_t n, const cplx* twiddle) {
  std::size_t len = 2;
  if (4 <= n) {
    // twiddle[0] is tw_2[0]; twiddle[1], twiddle[2] are tw_4[0], tw_4[1].
    std::size_t i = 0;
    for (; i + 4 * A::kLanes <= n; i += 4 * A::kLanes)
      fft_radix22_first<A>(x + i, twiddle);
    for (; i < n; i += 4) fft_radix22_first<ScalarArch>(x + i, twiddle);
    len = 8;
  }
  for (; 2 * len <= n; len <<= 2) {
    const std::size_t half = len / 2;
    const cplx* tw1 = twiddle + (half - 1);
    const cplx* tw2 = twiddle + (len - 1);
    // half >= 4 >= kLanes, a power of two, so groups split evenly: no tail.
    for (std::size_t i = 0; i < n; i += 2 * len)
      for (std::size_t k = 0; k < half; k += A::kLanes)
        fft_radix22<A>(x + i + k, half, len, tw1 + k, tw2 + k);
  }
  if (len <= n) {
    // One radix-2 stage left: len == n, a single block.
    const cplx* tw = twiddle + (len / 2 - 1);
    const std::size_t half = len / 2;
    std::size_t k = 0;
    if (half >= A::kLanes)
      for (; k < half; k += A::kLanes) fft_butterfly<A>(x + k, x + k + half, tw + k);
    for (; k < half; ++k) fft_butterfly<ScalarArch>(x + k, x + k + half, tw + k);
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

/// The envelope front end's outputs, a block of kLanes at a time: the step
/// sums gathered per block in registers over the steps that reach it, then
/// the combine. A vector block sits inside one kFrontEndGroup, so every step
/// reaches all of its lanes or none; remainder outputs run one at a time.
template <class A>
void front_end_outputs_k(const FrontEndSteps& in, cplx* out, std::size_t n) {
  static_assert(kFrontEndGroup % A::kLanes == 0, "blocks must not straddle groups");
  std::size_t lo = 0, hi = 0;  // the steps reaching the current block
  const auto block = [&](auto arch, std::size_t j) {
    using B = decltype(arch);
    while (lo < in.count && in.steps[lo].j + in.width < j + B::kLanes) ++lo;
    while (hi < in.count && in.steps[hi].j <= j) ++hi;
    typename B::D a1r = B::set1(0.0), a1i = a1r, a2r = a1r, a2i = a1r;
    for (std::size_t s = lo; s < hi; ++s) {
      const FrontEndStep& st = in.steps[s];
      const std::size_t q = st.row + (j - st.j);
      const typename B::D vr = B::set1(st.dr), vi = B::set1(st.di);
      const typename B::D h = B::load(in.h + q), tr = B::load(in.tr + q),
                          ti = B::load(in.ti + q);
      a1r = B::add(a1r, B::mul(vr, h));
      a1i = B::add(a1i, B::mul(vi, h));
      a2r = B::add(a2r, B::add(B::mul(vr, tr), B::mul(vi, ti)));
      a2i = B::add(a2i, B::sub(B::mul(vr, ti), B::mul(vi, tr)));
    }
    typename B::D br, bi, er, ei;
    B::load_pairs(reinterpret_cast<const double*>(out + j), br, bi);
    B::load_pairs_strided(reinterpret_cast<const double*>(in.e + j * in.stride),
                          2 * in.stride, er, ei);
    const typename B::D hv = B::set1(in.h_all);
    const typename B::D tr = B::set1(in.t_r), ti = B::set1(in.t_i);
    a1r = B::add(a1r, B::mul(br, hv));
    a1i = B::add(a1i, B::mul(bi, hv));
    a2r = B::add(a2r, B::add(B::mul(br, tr), B::mul(bi, ti)));
    a2i = B::add(a2i, B::sub(B::mul(br, ti), B::mul(bi, tr)));
    const typename B::D half = B::set1(0.5);
    B::store_interleaved(
        reinterpret_cast<double*>(out + j),
        B::mul(half, B::add(a1r, B::sub(B::mul(er, a2r), B::mul(ei, a2i)))),
        B::mul(half, B::add(a1i, B::add(B::mul(er, a2i), B::mul(ei, a2r)))));
  };
  std::size_t j = 0;
  for (; j + A::kLanes <= n; j += A::kLanes) block(A{}, j);
  for (; j < n; ++j) block(ScalarDrawArch{}, j);
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
  }                                                                            \
  void front_end_outputs_##suffix(const FrontEndSteps& in, cplx* out,          \
                                  std::size_t n) {                             \
    front_end_outputs_k<draw_arch>(in, out, n);                                \
  }

}  // namespace vab::dsp::simd::detail
