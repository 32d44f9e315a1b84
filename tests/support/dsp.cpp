#include "support/dsp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"

namespace vab::dsp {

cvec sliding_correlate(const cvec& sig, const cvec& ref) {
  cvec out;
  sliding_correlate(sig, ref, out);
  return out;
}

rvec normalized_correlate(const cvec& sig, const cvec& ref) {
  rvec out;
  normalized_correlate(sig, ref, out);
  return out;
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
