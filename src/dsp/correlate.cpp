#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dsp/simd/simd.hpp"
#include "dsp/workspace.hpp"

namespace vab::dsp {

namespace {

// Lags per prefix-sum restart. Each block sums at most this many plus one
// reference length of samples; the prefix work per lag is 1 + M / kLagBlock.
constexpr std::size_t kLagBlock = 512;

/// acc + s * conj(r), with conj(r) given as (cr, ci) = (r.re, -r.im), the
/// products spelled out; the bits agree with std::complex.
cplx conj_mac(cplx acc, cplx s, double cr, double ci) {
  return cplx{acc.real() + (s.real() * cr - s.imag() * ci),
              acc.imag() + (s.imag() * cr + s.real() * ci)};
}

/// sum_{n < ref_len} sig[n] * conj(ref[n]), summed in n order.
cplx ccorr_dot(const cplx* sig, const cplx* ref, std::size_t ref_len) {
  cplx acc{};
  for (std::size_t n = 0; n < ref_len; ++n)
    acc = conj_mac(acc, sig[n], ref[n].real(), -ref[n].imag());
  return acc;
}

/// Serial-order sum of |x|^2, never reassociated.
double sum_norms(const cplx* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
  return acc;
}

/// One list of real step weights for simd::step_sum over an interleaved
/// complex prefix sum: offsets in doubles (2 per sample).
struct StepList {
  std::vector<std::size_t> off;
  rvec w;
  void push(std::size_t pos, double weight) {
    if (weight == 0.0) return;
    off.push_back(2 * pos);
    w.push_back(weight);
  }
};

/// dot = A + jB with A summing -Re(D_b) P[k+b] and B summing Im(D_b) P[k+b]
/// (-conj(D) P = -Re(D) P + j Im(D) P).
void split_steps(const StepSignal& ref, StepList& re, StepList& im) {
  cplx prev{};
  for (std::size_t i = 0; i < ref.runs(); ++i) {
    const cplx d = ref.values[i] - prev;
    re.push(ref.starts[i], -d.real());
    im.push(ref.starts[i], d.imag());
    prev = ref.values[i];
  }
  re.push(ref.length, prev.real());
  im.push(ref.length, -prev.imag());
}

/// ref's envelope as samples: zero before its first run.
void expand(const StepSignal& ref, cvec& out) {
  out.assign(ref.length, cplx{});
  for (std::size_t i = 0; i < ref.runs(); ++i)
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(ref.starts[i]),
              out.begin() + static_cast<std::ptrdiff_t>(ref.run_end(i)), ref.values[i]);
}

}  // namespace

void step_correlate(const cvec& sig, const StepSignal& ref, cvec& dots, rvec& energy) {
  if (ref.omega != 0.0)
    throw std::invalid_argument("step_correlate: reference carrier must be 0");
  const std::size_t m = ref.length;
  if (m == 0 || sig.size() < m) {
    dots.clear();
    energy.clear();
    return;
  }
  const std::size_t n_out = sig.size() - m + 1;
  dots.resize(n_out);
  energy.resize(n_out);
  StepList re, im;
  split_steps(ref, re, im);

  const std::size_t block = std::min(kLagBlock, n_out);
  auto p_l = Workspace::local().take_c(block + m);
  auto q_l = Workspace::local().take_r(block + m);
  auto b_l = Workspace::local().take_c(im.w.empty() ? 0 : block);
  cplx* p = p_l->data();
  double* q = q_l->data();
  for (std::size_t k0 = 0; k0 < n_out; k0 += block) {
    const std::size_t n = std::min(block, n_out - k0);
    // Prefix sums of sig and |sig|^2 from k0: p[j], q[j] sum sig[k0 .. k0+j).
    const cplx* s = sig.data() + k0;
    double pr = 0.0, pi = 0.0, e = 0.0;
    p[0] = cplx{};
    q[0] = 0.0;
    for (std::size_t j = 0; j + 1 < n + m; ++j) {
      pr += s[j].real();
      pi += s[j].imag();
      e += s[j].real() * s[j].real() + s[j].imag() * s[j].imag();
      p[j + 1] = cplx{pr, pi};
      q[j + 1] = e;
    }
    const auto* px = reinterpret_cast<const double*>(p);
    auto* out = reinterpret_cast<double*>(dots.data() + k0);
    simd::step_sum(px, re.off.data(), re.w.data(), re.w.size(), out, 2 * n);
    if (!im.w.empty()) {
      cplx* b = b_l->data();
      simd::step_sum(px, im.off.data(), im.w.data(), im.w.size(),
                     reinterpret_cast<double*>(b), 2 * n);
      for (std::size_t i = 0; i < n; ++i) {
        cplx& d = dots[k0 + i];
        d = cplx{d.real() - b[i].imag(), d.imag() + b[i].real()};
      }
    }
    for (std::size_t i = 0; i < n; ++i) energy[k0 + i] = q[i + m] - q[i];
  }
}

std::optional<CorrelationPeak> find_peak(const cvec& sig, const StepSignal& ref,
                                         double threshold) {
  auto dots_l = Workspace::local().take_c(0);
  auto energy_l = Workspace::local().take_r(0);
  const cvec& dots = *dots_l;
  const rvec& win = *energy_l;
  step_correlate(sig, ref, *dots_l, *energy_l);
  if (dots.empty()) return std::nullopt;

  // |dot|^2 / energy orders the lags as |dot| / (|window| |ref|) does.
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t k = 0; k < dots.size(); ++k) {
    const double d2 = dots[k].real() * dots[k].real() + dots[k].imag() * dots[k].imag();
    const double score = d2 / std::max(win[k], 1e-30);
    if (score > best_score) {
      best_score = score;
      best = k;
    }
  }

  auto samples_l = Workspace::local().take_c(0);
  cvec& samples = *samples_l;
  expand(ref, samples);
  const cplx raw = ccorr_dot(sig.data() + best, samples.data(), samples.size());
  const double ref_norm = std::sqrt(energy(samples));
  const double win_norm =
      std::sqrt(std::max(sum_norms(sig.data() + best, samples.size()), 1e-30));
  const double value = ref_norm == 0.0 ? 0.0 : std::abs(raw) / (win_norm * ref_norm);
  if (value < threshold) return std::nullopt;
  return CorrelationPeak{best, value, raw};
}

std::optional<CorrelationPeak> find_peak(const cvec& sig, const cvec& ref,
                                         double threshold) {
  StepSignal steps;
  runs_of(ref, steps);
  return find_peak(sig, steps, threshold);
}

double energy(const cvec& x) { return sum_norms(x.data(), x.size()); }

}  // namespace vab::dsp
