#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::dsp {

namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(common::kPi * x) / (common::kPi * x);
}

std::size_t force_odd(std::size_t taps) { return taps | 1u; }

void validate(double f_hz, double fs_hz) {
  if (fs_hz <= 0.0) throw std::invalid_argument("sample rate must be > 0");
  if (f_hz <= 0.0 || f_hz >= fs_hz / 2.0)
    throw std::invalid_argument("cutoff must be in (0, fs/2)");
}

}  // namespace

rvec design_lowpass(double cutoff_hz, double fs_hz, std::size_t taps, WindowType window,
                    double kaiser_beta) {
  validate(cutoff_hz, fs_hz);
  const std::size_t n = force_odd(taps);
  const double fc = cutoff_hz / fs_hz;  // normalized cutoff (cycles/sample)
  const rvec w = make_window(window, n, kaiser_beta);
  rvec h(n);
  const double mid = static_cast<double>(n - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * t) * w[i];
    sum += h[i];
  }
  for (auto& c : h) c /= sum;  // unity DC gain
  return h;
}

FirFilter::FirFilter(rvec taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FIR needs at least one tap");
  state_.assign(taps_.size(), cplx{});
}

cplx FirFilter::process(cplx x) {
  state_[pos_] = x;
  cplx acc{};
  std::size_t idx = pos_;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * state_[idx];
    idx = (idx == 0) ? state_.size() - 1 : idx - 1;
  }
  pos_ = (pos_ + 1) % state_.size();
  return acc;
}

cvec FirFilter::process(const cvec& x) {
  cvec y;
  process(x, y);
  return y;
}

void FirFilter::process(const cvec& x, cvec& y) {
  y.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = process(x[i]);
}

void fir_filter_decimate(const rvec& taps, const cvec& x, std::size_t m,
                         std::size_t offset, cvec& out) {
  if (taps.empty()) throw std::invalid_argument("FIR needs at least one tap");
  if (m == 0) throw std::invalid_argument("decimation factor must be >= 1");
  if (offset >= x.size()) {
    out.clear();
    return;
  }
  const std::size_t n_out = (x.size() - offset - 1) / m + 1;
  out.resize(n_out);
  // Every output sums in the streaming path's order: taps ascending, signal
  // walking backwards. A window that reaches before x[0] stops there, which
  // is the implicit zero history.
  const std::size_t n_taps = taps.size();
  const auto one = [&](std::size_t j) {
    const std::size_t i = offset + j * m;
    const std::size_t k_end = std::min(n_taps, i + 1);
    cplx acc{};
    for (std::size_t k = 0; k < k_end; ++k) acc += taps[k] * x[i - k];
    out[j] = acc;
  };
  std::size_t j = 0;
  for (; j < n_out && offset + j * m + 1 < n_taps; ++j) one(j);
  // Full windows four outputs at a time: each tap is loaded once for all
  // four, and four independent add chains hide the FP-add latency a single
  // accumulator serializes on. Each output's own sum order is unchanged.
  for (; j + 4 <= n_out; j += 4) {
    const cplx* b = x.data() + offset + j * m;
    cplx a0{}, a1{}, a2{}, a3{};
    for (std::size_t k = 0; k < n_taps; ++k) {
      const double t = taps[k];
      const cplx* r = b - k;
      a0 += t * r[0];
      a1 += t * r[m];
      a2 += t * r[2 * m];
      a3 += t * r[3 * m];
    }
    out[j] = a0;
    out[j + 1] = a1;
    out[j + 2] = a2;
    out[j + 3] = a3;
  }
  for (; j < n_out; ++j) one(j);
}

}  // namespace vab::dsp
