#include "dsp/fft.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/units.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/workspace.hpp"
#include "obs/metrics.hpp"

namespace vab::dsp {

std::size_t next_pow2(std::size_t n) {
  // Without the cap the loop would overflow p to 0 and spin forever for
  // n > 2^63; no realistic signal gets there, so treat it as a hard error.
  if (n > (std::size_t{1} << 62))
    throw std::length_error("next_pow2: size exceeds 2^62");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void cmul_inplace(cplx* a, const cplx* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    a[i] = cplx{a[i].real() * b[i].real() - a[i].imag() * b[i].imag(),
                a[i].imag() * b[i].real() + a[i].real() * b[i].imag()};
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft size must be a power of two");
  // The bit-reversal table holds 32-bit indices (half the plan's footprint
  // for every realistic size); reject sizes whose indices would truncate.
  if (n > (std::size_t{1} << 32))
    throw std::length_error("fft size exceeds 2^32 (32-bit bit-reversal table)");
  // Bit-reversal permutation, same incremental construction the unplanned
  // transform ran per call.
  bitrev_.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
  // Twiddle tables. Each stage's entries are generated with the exact
  // repeated-multiplication recurrence (w *= wlen) the unplanned butterflies
  // used, so planned transforms are bit-identical to the historical output.
  // Forward and inverse tables are kept separately for the same reason:
  // deriving one from the other by conjugation is not guaranteed bitwise
  // equal to recomputing the recurrence.
  tw_fwd_.reserve(n > 1 ? n - 1 : 0);
  tw_inv_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (int inv = 0; inv < 2; ++inv) {
      const double ang =
          (inv ? 1.0 : -1.0) * common::kTwoPi / static_cast<double>(len);
      const cplx wlen(std::cos(ang), std::sin(ang));
      cplx w(1.0, 0.0);
      cvec& table = inv ? tw_inv_ : tw_fwd_;
      for (std::size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::transform(cplx* x, const cplx* twiddle, bool inverse) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  // Danielson–Lanczos butterflies; stage `len` reads its precomputed table.
  simd::fft_stages(x, n, twiddle);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = cplx{inv_n * x[i].real(), inv_n * x[i].imag()};
  }
}

void FftPlan::forward(cplx* x) const { transform(x, tw_fwd_.data(), false); }
void FftPlan::inverse(cplx* x) const { transform(x, tw_inv_.data(), true); }

const FftPlan& fft_plan(std::size_t n) {
  static const obs::Counter hits = obs::counter("dsp.fft.plan_hits");
  static const obs::Counter misses = obs::counter("dsp.fft.plan_misses");
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    misses.inc();
    it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
  } else {
    hits.inc();
  }
  return *it->second;
}

void fft_inplace(cvec& x) { fft_plan(x.size()).forward(x.data()); }
void ifft_inplace(cvec& x) { fft_plan(x.size()).inverse(x.data()); }

cvec fft(const cvec& x) {
  cvec y = x;
  y.resize(next_pow2(std::max<std::size_t>(1, x.size())), cplx{0.0, 0.0});
  fft_inplace(y);
  return y;
}

cvec ifft(const cvec& x) {
  cvec y = x;
  ifft_inplace(y);
  return y;
}

void fft_real(const rvec& x, cvec& out) {
  const std::size_t n = next_pow2(std::max<std::size_t>(1, x.size()));
  if (n == 1) {
    out.assign(1, cplx{x.empty() ? 0.0 : x[0], 0.0});
    return;
  }
  if (n == 2) {
    const double a = x.empty() ? 0.0 : x[0];
    const double b = x.size() > 1 ? x[1] : 0.0;
    out.assign(2, cplx{});
    out[0] = cplx{a + b, 0.0};
    out[1] = cplx{a - b, 0.0};
    return;
  }
  // Pack even/odd samples into a half-size complex signal z[m] =
  // x[2m] + j x[2m+1], transform, then split the spectrum:
  //   X[k] = E[k] + e^{-j 2 pi k / n} O[k],  k = 0..h-1,
  // with E/O recovered from Z and its reflected conjugate. The upper half
  // follows from Hermitian symmetry of a real signal's spectrum.
  const std::size_t h = n / 2;
  auto z = Workspace::local().take_c(h);
  cvec& zb = *z;
  for (std::size_t m = 0; m < h; ++m) {
    const double re = 2 * m < x.size() ? x[2 * m] : 0.0;
    const double im = 2 * m + 1 < x.size() ? x[2 * m + 1] : 0.0;
    zb[m] = cplx{re, im};
  }
  fft_plan(h).forward(zb.data());

  out.assign(n, cplx{});
  const double step = -common::kTwoPi / static_cast<double>(n);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t kr = (h - k) & (h - 1);  // reflected index mod h
    const cplx zr = std::conj(zb[kr]);
    const cplx even = 0.5 * (zb[k] + zr);
    const cplx odd = cplx{0.0, -0.5} * (zb[k] - zr);
    const double ang = step * static_cast<double>(k);
    out[k] = even + cplx{std::cos(ang), std::sin(ang)} * odd;
  }
  // Nyquist bin: the split formula at k=h with twiddle -1.
  out[h] = cplx{zb[0].real() - zb[0].imag(), 0.0};
  for (std::size_t k = 1; k < h; ++k) out[n - k] = std::conj(out[k]);
}

cvec fft_real(const rvec& x) {
  cvec out;
  fft_real(x, out);
  return out;
}

}  // namespace vab::dsp
