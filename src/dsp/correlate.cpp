#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "dsp/workspace.hpp"
#include "obs/metrics.hpp"

namespace vab::dsp {

namespace {

// Below this work product the direct loop beats the transform bookkeeping.
constexpr std::size_t kNaiveWorkCutoff = 1 << 14;
constexpr std::size_t kNaiveRefCutoff = 8;

bool use_naive(std::size_t n_out, std::size_t ref_len) {
  return ref_len <= kNaiveRefCutoff || n_out * ref_len <= kNaiveWorkCutoff;
}

/// acc + s * conj(r), with conj(r) given as (cr, ci) = (r.re, -r.im). Spelled
/// out like cmul_inplace (dsp/fft.hpp); the bits agree with std::complex.
cplx conj_mac(cplx acc, cplx s, double cr, double ci) {
  return cplx{acc.real() + (s.real() * cr - s.imag() * ci),
              acc.imag() + (s.imag() * cr + s.real() * ci)};
}

/// out[k] = sum_{n < ref_len} sig[k+n] * conj(ref[n]), k in [0, n_out), each
/// lag summed in n order.
void ccorr_dot(const cplx* sig, const cplx* ref, std::size_t ref_len, cplx* out,
               std::size_t n_out) {
  std::size_t k = 0;
  // Four lags per pass share each conj(ref[n]) and give four independent
  // add chains, hiding the FP-add latency a single accumulator serializes on.
  for (; k + 4 <= n_out; k += 4) {
    cplx a0{}, a1{}, a2{}, a3{};
    for (std::size_t n = 0; n < ref_len; ++n) {
      const double cr = ref[n].real();
      const double ci = -ref[n].imag();
      const cplx* s = sig + k + n;
      a0 = conj_mac(a0, s[0], cr, ci);
      a1 = conj_mac(a1, s[1], cr, ci);
      a2 = conj_mac(a2, s[2], cr, ci);
      a3 = conj_mac(a3, s[3], cr, ci);
    }
    out[k] = a0;
    out[k + 1] = a1;
    out[k + 2] = a2;
    out[k + 3] = a3;
  }
  for (; k < n_out; ++k) {
    cplx acc{};
    for (std::size_t n = 0; n < ref_len; ++n)
      acc = conj_mac(acc, sig[k + n], ref[n].real(), -ref[n].imag());
    out[k] = acc;
  }
}

/// Serial-order sum of |x|^2, never reassociated.
double sum_norms(const cplx* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
  return acc;
}

void sliding_correlate_naive_into(const cvec& sig, const cvec& ref, cvec& out) {
  const std::size_t n_out = sig.size() - ref.size() + 1;
  out.resize(n_out);
  ccorr_dot(sig.data(), ref.data(), ref.size(), out.data(), n_out);
}

// Overlap-save cross-correlation. With h[m] = conj(ref[M-1-m]) the full
// convolution c = sig * h satisfies out[k] = c[k + M - 1], so each circular
// nfft-block over sig[k0 .. k0+nfft) yields the L = nfft - M + 1 valid
// outputs out[k0 .. k0+L) at circular indices M-1 .. nfft-1.
void sliding_correlate_fft_into(const cvec& sig, const cvec& ref, cvec& out) {
  static const obs::Counter blocks_ctr = obs::counter("dsp.correlate.fft_blocks");
  const std::size_t m = ref.size();
  const std::size_t n_out = sig.size() - m + 1;
  out.resize(n_out);

  std::size_t nfft = next_pow2(4 * m);
  nfft = std::min(nfft, next_pow2(sig.size()));
  nfft = std::max(nfft, next_pow2(m));
  const std::size_t block_len = nfft - m + 1;

  auto href_l = Workspace::local().take_c(nfft);
  auto blk_l = Workspace::local().take_c(nfft);
  cvec& href = *href_l;
  cvec& blk = *blk_l;

  const FftPlan& plan = fft_plan(nfft);
  for (std::size_t i = 0; i < m; ++i) href[i] = std::conj(ref[m - 1 - i]);
  plan.forward(href.data());

  std::uint64_t blocks = 0;
  for (std::size_t k0 = 0; k0 < n_out; k0 += block_len, ++blocks) {
    const std::size_t avail = std::min(nfft, sig.size() - k0);
    std::copy(sig.begin() + static_cast<std::ptrdiff_t>(k0),
              sig.begin() + static_cast<std::ptrdiff_t>(k0 + avail), blk.begin());
    std::fill(blk.begin() + static_cast<std::ptrdiff_t>(avail), blk.end(), cplx{});
    plan.forward(blk.data());
    cmul_inplace(blk.data(), href.data(), nfft);
    plan.inverse(blk.data());
    const std::size_t n_take = std::min(block_len, n_out - k0);
    for (std::size_t j = 0; j < n_take; ++j) out[k0 + j] = blk[m - 1 + j];
  }
  blocks_ctr.add(blocks);
}

}  // namespace

void sliding_correlate(const cvec& sig, const cvec& ref, cvec& out) {
  if (sig.size() < ref.size() || ref.empty()) {
    out.clear();
    return;
  }
  const std::size_t n_out = sig.size() - ref.size() + 1;
  if (use_naive(n_out, ref.size())) {
    sliding_correlate_naive_into(sig, ref, out);
  } else {
    sliding_correlate_fft_into(sig, ref, out);
  }
}

cvec sliding_correlate_naive(const cvec& sig, const cvec& ref) {
  if (sig.size() < ref.size() || ref.empty()) return {};
  cvec out;
  sliding_correlate_naive_into(sig, ref, out);
  return out;
}

void normalized_correlate(const cvec& sig, const cvec& ref, rvec& out) {
  if (sig.size() < ref.size() || ref.empty()) {
    out.clear();
    return;
  }
  const std::size_t n_out = sig.size() - ref.size() + 1;
  const double ref_norm = std::sqrt(energy(ref));
  if (ref_norm == 0.0) {
    out.assign(n_out, 0.0);
    return;
  }

  auto dot_l = Workspace::local().take_c(0);
  cvec& dot = *dot_l;
  sliding_correlate(sig, ref, dot);

  // Running window energy for O(N) normalization.
  out.resize(n_out);
  double win_energy = sum_norms(sig.data(), ref.size());
  for (std::size_t k = 0; k < n_out; ++k) {
    const double denom = std::sqrt(std::max(win_energy, 1e-30)) * ref_norm;
    out[k] = std::abs(dot[k]) / denom;
    if (k + 1 < n_out) {
      win_energy += std::norm(sig[k + ref.size()]) - std::norm(sig[k]);
      win_energy = std::max(win_energy, 0.0);
    }
  }
}

std::optional<CorrelationPeak> find_peak(const cvec& sig, const cvec& ref,
                                         double threshold) {
  auto corr_l = Workspace::local().take_r(0);
  rvec& corr = *corr_l;
  normalized_correlate(sig, ref, corr);
  if (corr.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t k = 1; k < corr.size(); ++k)
    if (corr[k] > corr[best]) best = k;
  if (corr[best] < threshold) return std::nullopt;

  cplx raw{};
  ccorr_dot(sig.data() + best, ref.data(), ref.size(), &raw, 1);
  return CorrelationPeak{best, corr[best], raw};
}

double energy(const cvec& x) { return sum_norms(x.data(), x.size()); }

}  // namespace vab::dsp
