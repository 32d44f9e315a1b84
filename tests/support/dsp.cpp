#include "support/dsp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace vab::dsp {

namespace {

/// acc + s * conj(r), spelled out as the library's direct dot spells it.
cplx conj_mac(cplx acc, cplx s, double cr, double ci) {
  return cplx{acc.real() + (s.real() * cr - s.imag() * ci),
              acc.imag() + (s.imag() * cr + s.real() * ci)};
}

double sum_norms(const cplx* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
  return acc;
}

/// a[i] *= b[i] as the explicit (ac - bd, bc + ad) product.
void cmul_inplace(cplx* a, const cplx* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    a[i] = cplx{a[i].real() * b[i].real() - a[i].imag() * b[i].imag(),
                a[i].imag() * b[i].real() + a[i].real() * b[i].imag()};
}

// Overlap-save cross-correlation. With h[m] = conj(ref[M-1-m]) the full
// convolution c = sig * h satisfies out[k] = c[k + M - 1], so each circular
// nfft-block over sig[k0 .. k0+nfft) yields the L = nfft - M + 1 valid
// outputs out[k0 .. k0+L) at circular indices M-1 .. nfft-1.
cvec overlap_save_correlate(const cvec& sig, const cvec& ref) {
  const std::size_t m = ref.size();
  const std::size_t n_out = sig.size() - m + 1;
  cvec out(n_out);
  std::size_t nfft = next_pow2(4 * m);
  nfft = std::min(nfft, next_pow2(sig.size()));
  nfft = std::max(nfft, next_pow2(m));
  const std::size_t block_len = nfft - m + 1;
  cvec href(nfft), blk(nfft);
  const FftPlan& plan = fft_plan(nfft);
  for (std::size_t i = 0; i < m; ++i) href[i] = std::conj(ref[m - 1 - i]);
  plan.forward(href.data());
  for (std::size_t k0 = 0; k0 < n_out; k0 += block_len) {
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
  return out;
}

}  // namespace

void fft_radix2_reference(cvec& x, bool inverse, bool normalize) {
  const std::size_t n = x.size();
  if (!is_pow2(n))
    throw std::invalid_argument("fft_radix2_reference: size not a power of two");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 1.0 : -1.0) * common::kTwoPi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    cvec tw;
    cplx w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw.push_back(w);
      w *= wlen;
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = x[i + k];
        const cplx h = x[i + k + len / 2];
        const cplx v{h.real() * tw[k].real() - h.imag() * tw[k].imag(),
                     h.imag() * tw[k].real() + h.real() * tw[k].imag()};
        x[i + k] = cplx{u.real() + v.real(), u.imag() + v.imag()};
        x[i + k + len / 2] = cplx{u.real() - v.real(), u.imag() - v.imag()};
      }
    }
  }
  if (normalize) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v = cplx{inv_n * v.real(), inv_n * v.imag()};
  }
}

void merge_events_linear(std::span<const EventStream> streams, StepSignal& out) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  out.starts.clear();
  out.values.clear();
  std::vector<std::size_t> next(streams.size(), kNone);
  std::vector<std::size_t> idx(streams.size(), 0);
  for (std::size_t s = 0; s < streams.size(); ++s)
    if (!streams[s].events.empty()) next[s] = streams[s].events[0].pos + streams[s].shift;
  cplx v{};
  while (!next.empty()) {
    const std::size_t pos = *std::min_element(next.begin(), next.end());
    if (pos >= out.length) break;  // also kNone: every stream is exhausted
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const EventStream& st = streams[s];
      while (next[s] == pos) {
        const cplx d = st.events[idx[s]].delta;
        v += cplx{st.gain.real() * d.real() - st.gain.imag() * d.imag(),
                  st.gain.real() * d.imag() + st.gain.imag() * d.real()};
        ++idx[s];
        next[s] = idx[s] < st.events.size() ? st.events[idx[s]].pos + st.shift : kNone;
      }
    }
    out.starts.push_back(pos);
    out.values.push_back(v);
  }
}

cvec sliding_correlate(const cvec& sig, const cvec& ref) {
  if (ref.empty() || sig.size() < ref.size()) return {};
  cvec out(sig.size() - ref.size() + 1);
  for (std::size_t k = 0; k < out.size(); ++k) {
    cplx acc{};
    for (std::size_t n = 0; n < ref.size(); ++n)
      acc = conj_mac(acc, sig[k + n], ref[n].real(), -ref[n].imag());
    out[k] = acc;
  }
  return out;
}

rvec normalized_correlate(const cvec& sig, const cvec& ref) {
  const cvec dot = sliding_correlate(sig, ref);
  const double ref_norm = std::sqrt(sum_norms(ref.data(), ref.size()));
  rvec out(dot.size(), 0.0);
  if (ref_norm == 0.0) return out;
  for (std::size_t k = 0; k < dot.size(); ++k) {
    const double win = std::max(sum_norms(sig.data() + k, ref.size()), 1e-30);
    out[k] = std::abs(dot[k]) / (std::sqrt(win) * ref_norm);
  }
  return out;
}

cvec samples_of(const StepSignal& x) {
  cvec out(x.length);
  for (std::size_t i = 0; i < x.runs(); ++i)
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(x.starts[i]),
              out.begin() + static_cast<std::ptrdiff_t>(x.run_end(i)), x.values[i]);
  return out;
}

std::optional<CorrelationPeak> fft_find_peak(const cvec& sig, const cvec& ref,
                                             double threshold) {
  if (sig.size() < ref.size() || ref.empty()) return std::nullopt;
  const std::size_t n_out = sig.size() - ref.size() + 1;
  const bool direct = ref.size() <= 8 || n_out * ref.size() <= (std::size_t{1} << 14);
  const cvec dot =
      direct ? sliding_correlate(sig, ref) : overlap_save_correlate(sig, ref);
  rvec corr(n_out, 0.0);
  const double ref_norm = std::sqrt(sum_norms(ref.data(), ref.size()));
  if (ref_norm != 0.0) {
    double win_energy = sum_norms(sig.data(), ref.size());
    for (std::size_t k = 0; k < n_out; ++k) {
      const double denom = std::sqrt(std::max(win_energy, 1e-30)) * ref_norm;
      corr[k] = std::abs(dot[k]) / denom;
      if (k + 1 < n_out) {
        win_energy += std::norm(sig[k + ref.size()]) - std::norm(sig[k]);
        win_energy = std::max(win_energy, 0.0);
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t k = 1; k < corr.size(); ++k)
    if (corr[k] > corr[best]) best = k;
  if (corr[best] < threshold) return std::nullopt;
  cplx raw{};
  for (std::size_t n = 0; n < ref.size(); ++n)
    raw = conj_mac(raw, sig[best + n], ref[n].real(), -ref[n].imag());
  return CorrelationPeak{best, corr[best], raw};
}

double energy(const rvec& x) {
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return acc;
}

double rms(const rvec& x) {
  return x.empty() ? 0.0 : std::sqrt(energy(x) / static_cast<double>(x.size()));
}

double rms(const cvec& x) {
  return x.empty() ? 0.0 : std::sqrt(energy(x) / static_cast<double>(x.size()));
}

double fir_response_at(const rvec& taps, double f_hz, double fs_hz) {
  const double w = common::kTwoPi * f_hz / fs_hz;
  cplx acc{};
  for (std::size_t n = 0; n < taps.size(); ++n)
    acc += taps[n] * std::exp(cplx{0.0, -w * static_cast<double>(n)});
  return std::abs(acc);
}

Psd welch_psd(const rvec& x, double fs_hz, std::size_t segment, WindowType window) {
  if (!is_pow2(segment)) throw std::invalid_argument("segment must be a power of two");
  if (x.size() < segment) throw std::invalid_argument("signal shorter than one segment");

  const rvec w = make_window(window, segment);
  double win_power = 0.0;
  for (double v : w) win_power += v * v;

  const std::size_t hop = segment / 2;
  const std::size_t n_seg = (x.size() - segment) / hop + 1;
  const std::size_t n_bins = segment / 2 + 1;

  rvec acc(n_bins, 0.0);
  cvec buf(segment);
  for (std::size_t s = 0; s < n_seg; ++s) {
    const std::size_t off = s * hop;
    for (std::size_t i = 0; i < segment; ++i)
      buf[i] = cplx{x[off + i] * w[i], 0.0};
    fft_inplace(buf);
    for (std::size_t k = 0; k < n_bins; ++k) {
      double p = std::norm(buf[k]);
      // One-sided: double everything except DC and Nyquist.
      if (k != 0 && k != segment / 2) p *= 2.0;
      acc[k] += p;
    }
  }

  const double scale = 1.0 / (fs_hz * win_power * static_cast<double>(n_seg));
  Psd psd;
  psd.freq_hz.resize(n_bins);
  psd.power_db.resize(n_bins);
  for (std::size_t k = 0; k < n_bins; ++k) {
    psd.freq_hz[k] = static_cast<double>(k) * fs_hz / static_cast<double>(segment);
    psd.power_db[k] = 10.0 * std::log10(std::max(acc[k] * scale, 1e-300));
  }
  return psd;
}

double band_power(const rvec& x, double fs_hz, double f_lo, double f_hi,
                  std::size_t segment) {
  const Psd psd = welch_psd(x, fs_hz, segment);
  const double df = psd.freq_hz[1] - psd.freq_hz[0];
  double p = 0.0;
  for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
    if (psd.freq_hz[k] >= f_lo && psd.freq_hz[k] <= f_hi)
      p += std::pow(10.0, psd.power_db[k] / 10.0) * df;
  }
  return p;
}

}  // namespace vab::dsp
