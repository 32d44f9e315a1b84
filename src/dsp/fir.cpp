#include "dsp/fir.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/simd/simd.hpp"

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

double FirFilter::process(double x) { return process(cplx{x, 0.0}).real(); }

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

rvec FirFilter::process(const rvec& x) {
  rvec y;
  process(x, y);
  return y;
}

cvec FirFilter::process(const cvec& x) {
  cvec y;
  process(x, y);
  return y;
}

void FirFilter::process(const rvec& x, rvec& y) {
  y.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = process(x[i]);
}

void FirFilter::process(const cvec& x, cvec& y) {
  y.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = process(x[i]);
}

void FirFilter::reset() {
  state_.assign(taps_.size(), cplx{});
  pos_ = 0;
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
  // Ramp-up outputs whose window clips against the implicit zero history
  // before x[0] stay on the guarded loop; same accumulation order as the
  // streaming path (taps ascending, signal walking backwards).
  std::size_t j = 0;
  for (; j < n_out && offset + j * m + 1 < taps.size(); ++j) {
    const std::size_t i = offset + j * m;
    const std::size_t k_end = std::min(taps.size(), i + 1);
    cplx acc{};
    for (std::size_t k = 0; k < k_end; ++k) acc += taps[k] * x[i - k];
    out[j] = acc;
  }
  // Full-window outputs go through the batch kernel (bit-identical to the
  // loop above by the simd layer's contract).
  simd::fir_decimate(taps.data(), taps.size(), x.data(), offset + j * m, m,
                     out.data() + j, n_out - j);
}

double fir_response_at(const rvec& taps, double f_hz, double fs_hz) {
  const double w = common::kTwoPi * f_hz / fs_hz;
  cplx acc{};
  for (std::size_t n = 0; n < taps.size(); ++n)
    acc += taps[n] * std::exp(cplx{0.0, -w * static_cast<double>(n)});
  return std::abs(acc);
}

}  // namespace vab::dsp
