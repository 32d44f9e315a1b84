#include "support/phy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/mixer.hpp"
#include "phy/ber.hpp"
#include "phy/miller.hpp"

namespace vab::phy {

bitvec fm0_decode(const bitvec& chips) {
  if (chips.size() % 2 != 0) throw std::invalid_argument("chip count must be even");
  bitvec bits;
  bits.reserve(chips.size() / 2);
  for (std::size_t i = 0; i < chips.size(); i += 2)
    bits.push_back(chips[i] == chips[i + 1] ? 1 : 0);
  return bits;
}

bitvec miller_decode(const bitvec& chips, unsigned m) {
  // miller_decode_soft validates M and the chip count.
  rvec soft(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) soft[i] = chips[i] ? 1.0 : -1.0;
  return miller_decode_soft(soft, m);
}

double ber_ook_coherent(double ebn0) {
  return q_function(std::sqrt(std::max(ebn0, 0.0)));
}

double ber_ook_noncoherent(double ebn0) {
  return 0.5 * std::exp(-std::max(ebn0, 0.0) / 2.0);
}

void front_end_scatter_reference(const ReaderDemodulator& demod,
                                 const dsp::StepSignal& capture, cvec& out) {
  const PhyConfig& cfg = demod.config();
  const rvec& h = demod.lowpass_taps();
  const std::size_t taps = h.size();
  const std::size_t m = cfg.decimation();
  const double omega = common::kTwoPi * cfg.carrier_hz / cfg.fs_hz;
  // H[i] = sum_{k<i} h[k], T[i] = sum_{k<i} h[k] e^{2j omega k}, the
  // rotations from the oscillator cache the demodulator reads.
  const cvec* rot = dsp::cached_tone(-2.0 * cfg.carrier_hz, cfg.fs_hz, 0.0, taps);
  rvec hp(taps + 1, 0.0);
  cvec tp(taps + 1, cplx{});
  for (std::size_t k = 0; k < taps; ++k) {
    const cplx e = rot ? std::conj((*rot)[k])
                       : std::polar(1.0, 2.0 * omega * static_cast<double>(k));
    hp[k + 1] = hp[k] + h[k];
    tp[k + 1] = tp[k] + h[k] * e;
  }
  const std::size_t offset = cfg.lowpass_taps + 8 * m;
  out.clear();
  if (offset >= capture.length) return;
  const std::size_t n_out = (capture.length - offset - 1) / m + 1;
  rvec s1r(n_out, 0.0), s1i(n_out, 0.0), s2r(n_out, 0.0), s2i(n_out, 0.0);
  cplx prev{};
  std::size_t j0 = 0, n0 = offset;
  for (std::size_t i = 0; i < capture.runs(); ++i) {
    const std::size_t p = capture.starts[i];
    const double dr = capture.values[i].real() - prev.real();
    const double di = capture.values[i].imag() - prev.imag();
    prev = capture.values[i];
    while (n0 < p) {
      n0 += m;
      ++j0;
    }
    if (j0 >= n_out) break;
    for (std::size_t j = j0, idx = n0 - p + 1; j < n_out && idx < taps; ++j, idx += m) {
      s1r[j] += dr * hp[idx];
      s1i[j] += di * hp[idx];
      s2r[j] += dr * tp[idx].real() + di * tp[idx].imag();
      s2i[j] += dr * tp[idx].imag() - di * tp[idx].real();
    }
  }
  const cvec* img =
      dsp::cached_tone(-2.0 * cfg.carrier_hz, cfg.fs_hz, 0.0, capture.length);
  const double h_all = hp[taps];
  const cplx t_all = tp[taps];
  out.resize(n_out);
  std::size_t r = 0;
  for (std::size_t j = 0; j < n_out; ++j) {
    const std::size_t n = offset + j * m;
    cplx base{};
    if (n + 1 >= taps) {
      const std::size_t w0 = n + 1 - taps;
      while (r < capture.runs() && capture.run_end(r) <= w0) ++r;
      if (r < capture.runs() && capture.starts[r] <= w0) base = capture.values[r];
    }
    const double a1r = s1r[j] + base.real() * h_all;
    const double a1i = s1i[j] + base.imag() * h_all;
    const double a2r = s2r[j] + (base.real() * t_all.real() + base.imag() * t_all.imag());
    const double a2i = s2i[j] + (base.real() * t_all.imag() - base.imag() * t_all.real());
    const cplx e =
        img ? (*img)[n] : std::polar(1.0, -2.0 * omega * static_cast<double>(n));
    out[j] = cplx{0.5 * (a1r + (e.real() * a2r - e.imag() * a2i)),
                  0.5 * (a1i + (e.real() * a2i + e.imag() * a2r))};
  }
}

}  // namespace vab::phy
