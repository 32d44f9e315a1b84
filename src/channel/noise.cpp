#include "channel/noise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/workspace.hpp"
#include "obs/metrics.hpp"

namespace vab::channel {

namespace {
// Power-sum of dB quantities.
double db_sum(double a_db, double b_db) {
  return 10.0 * std::log10(std::pow(10.0, a_db / 10.0) + std::pow(10.0, b_db / 10.0));
}

// Interior Wenz math on raw doubles, bit-identical to the pre-units tree;
// the typed API wraps at the boundary.
double turbulence_nsd_db(double f_hz) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 17.0 - 30.0 * std::log10(f_khz);
}

double shipping_nsd_db(double f_hz, double s) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 40.0 + 20.0 * (s - 0.5) + 26.0 * std::log10(f_khz) -
         60.0 * std::log10(f_khz + 0.03);
}

double wind_nsd_db(double f_hz, double w) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 50.0 + 7.5 * std::sqrt(std::max(w, 0.0)) + 20.0 * std::log10(f_khz) -
         40.0 * std::log10(f_khz + 0.4);
}

double thermal_nsd_db(double f_hz) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return -15.0 + 20.0 * std::log10(f_khz);
}

double ambient_nsd_db(double f_hz, const NoiseConditions& cond) {
  double total = turbulence_nsd_db(f_hz);
  total = db_sum(total, shipping_nsd_db(f_hz, cond.shipping));
  total = db_sum(total, wind_nsd_db(f_hz, cond.wind_speed_mps));
  total = db_sum(total, thermal_nsd_db(f_hz));
  total = db_sum(total, cond.site_floor_db);
  return total;
}

// Wenz NSD in Pa^2/Hz (one-sided, as ambient_nsd_db gives it in dB re
// 1 uPa^2/Hz).
double nsd_pa2(double f_hz, const NoiseConditions& cond) {
  return std::pow(10.0, ambient_nsd_db(f_hz, cond) / 10.0) * common::kRefPressurePa *
         common::kRefPressurePa;
}

// Per-bin spectral amplitudes for both syntheses. The Wenz NSD evaluation
// costs ~10 transcendentals per bin and depends only on the key below — not
// on the Rng — so a thread-local cache turns steady-state synthesis (same
// scenario, trial after trial) into pure Gaussian draws plus one planned
// inverse FFT. Passband entries (carrier 0, decimation 1, no taps) hold
// exactly the sigmas the uncached loop computed, keeping output
// bit-identical.
struct SigmaTable {
  std::size_t nfft = 0;
  double fs_hz = 0.0;
  NoiseConditions cond{};
  double carrier_hz = 0.0;     // baseband front end: downconversion carrier,
  std::size_t decimation = 1;  // decimation factor
  rvec lowpass;                // and anti-alias FIR
  // Passband: index k in [1, nfft/2), entry 0 unused. Baseband: all nfft
  // bins in bit-reversed order, entry i holding bin bitrev[i] of the
  // nfft-point FftPlan, the order the synthesis gathers its draws in.
  rvec sigma;

  bool matches(std::size_t n, double fs, const NoiseConditions& c, double fc,
               std::size_t m, const rvec& taps) const {
    return nfft == n && fs_hz == fs && cond.shipping == c.shipping &&
           cond.wind_speed_mps == c.wind_speed_mps &&
           cond.site_floor_db == c.site_floor_db && carrier_hz == fc && decimation == m &&
           lowpass == taps;
  }
};

rvec passband_sigmas(std::size_t nfft, double fs_hz, const NoiseConditions& cond) {
  rvec sigma(nfft / 2, 0.0);
  const double df = fs_hz / static_cast<double>(nfft);
  for (std::size_t k = 1; k < nfft / 2; ++k) {
    const double f = static_cast<double>(k) * df;
    // PSD [Pa^2/Hz] -> per-bin variance = PSD * df; split across +/- bins.
    sigma[k] = std::sqrt(nsd_pa2(f, cond) * df / 2.0);
  }
  return sigma;
}

// Power gain below which the baseband synthesis drops a frequency: 110 dB
// under the unity passband, past where the demodulator's Kaiser low-pass
// turns into its >= 118 dB stopband.
constexpr double kStopbandGain = 1e-11;

// Bin j of an nfft-point spectrum at fs / m collects the input frequencies
// q * df, q = j (mod nfft), of the m * nfft-point grid over [0, fs). The
// FIR's response on that grid comes from m nfft-point FFTs: for q = m p + r,
// H(q) = sum_n (h[n] e^{-2 pi i n r / (m nfft)}) e^{-2 pi i n p / nfft}.
rvec baseband_sigmas(std::size_t nfft, double fs_hz, const NoiseConditions& cond,
                     double carrier_hz, std::size_t m, const rvec& lowpass) {
  const std::size_t fine = m * nfft;
  const double df = fs_hz / static_cast<double>(fine);
  rvec var(nfft, 0.0);
  cvec u(nfft);
  for (std::size_t r = 0; r < m; ++r) {
    std::fill(u.begin(), u.end(), cplx{});
    for (std::size_t n = 0; n < lowpass.size(); ++n) {
      const double w = -common::kTwoPi * static_cast<double>((n * r) % fine) /
                       static_cast<double>(fine);
      u[n % nfft] += lowpass[n] * cplx{std::cos(w), std::sin(w)};
    }
    dsp::fft_plan(nfft).forward(u.data());
    for (std::size_t p = 0; p < nfft; ++p) {
      const double gain = std::norm(u[p]);
      if (gain < kStopbandGain) continue;
      const std::size_t q = m * p + r;
      // Baseband frequency of q, then the passband frequency it came from,
      // both wrapped into [-fs/2, fs/2).
      double f = static_cast<double>(q) * df;
      if (q >= fine / 2) f -= fs_hz;
      double fp = f + carrier_hz;
      if (fp >= fs_hz / 2.0) fp -= fs_hz;
      if (fp < -fs_hz / 2.0) fp += fs_hz;
      // Real noise puts half its one-sided NSD on each side of 0 Hz.
      var[q % nfft] += gain * nsd_pa2(std::abs(fp), cond) / 2.0 * df;
    }
  }
  const std::uint32_t* bitrev = dsp::fft_plan(nfft).bitrev();
  rvec sigma(nfft);
  for (std::size_t i = 0; i < nfft; ++i) sigma[i] = std::sqrt(var[bitrev[i]]);
  return sigma;
}

const rvec& sigma_table(std::size_t nfft, double fs_hz, const NoiseConditions& cond,
                        double carrier_hz = 0.0, std::size_t decimation = 1,
                        const rvec& lowpass = {}) {
  static const obs::Counter hits = obs::counter("channel.noise.sigma_hits");
  static const obs::Counter misses = obs::counter("channel.noise.sigma_misses");
  thread_local std::vector<SigmaTable> cache;
  for (auto& t : cache) {
    if (t.matches(nfft, fs_hz, cond, carrier_hz, decimation, lowpass)) {
      hits.inc();
      return t.sigma;
    }
  }
  misses.inc();
  if (cache.size() >= 8) cache.clear();  // bound memory; rebuilds amortize
  SigmaTable t;
  t.nfft = nfft;
  t.fs_hz = fs_hz;
  t.cond = cond;
  t.carrier_hz = carrier_hz;
  t.decimation = decimation;
  t.lowpass = lowpass;
  t.sigma = lowpass.empty()
                ? passband_sigmas(nfft, fs_hz, cond)
                : baseband_sigmas(nfft, fs_hz, cond, carrier_hz, decimation, lowpass);
  cache.push_back(std::move(t));
  return cache.back().sigma;
}
}  // namespace

common::Db noise_level(common::Hz f, common::Hz bw, const NoiseConditions& cond) {
  if (bw.raw() <= 0.0) throw std::invalid_argument("bandwidth must be > 0");
  return common::Db{ambient_nsd_db(f.raw(), cond) + 10.0 * std::log10(bw.raw())};
}

void synthesize_ambient_noise(std::size_t n, common::SampleRateHz fs,
                              const NoiseConditions& cond, common::Rng& rng, rvec& out) {
  const double fs_hz = fs.raw();
  if (n == 0) {
    out.clear();
    return;
  }
  if (fs_hz <= 0.0) throw std::invalid_argument("sample rate must be > 0");

  const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(n, 2));
  auto spec_l = dsp::Workspace::local().take_c_for_overwrite(nfft);
  cvec& spec = *spec_l;

  // Hermitian spectrum with per-bin amplitude from the Wenz NSD (cached).
  // Bin k carries sigma[k] * rng.complex_gaussian(1.0): the batch sampler
  // writes those draws (re, im per bin) straight into spec[1..nfft/2), and
  // the loop applies complex_gaussian's sqrt(1/2) and then sigma[k] in
  // place, in that order. The loop writes every bin but DC and Nyquist.
  const rvec& sigma = sigma_table(nfft, fs_hz, cond);
  const std::size_t half = nfft / 2;
  dsp::simd::fill_gaussian(rng, reinterpret_cast<double*>(spec.data() + 1),
                           2 * (half - 1));
  const double unit = std::sqrt(1.0 / 2.0);
  for (std::size_t k = 1; k < half; ++k) {
    spec[k] = cplx{unit * spec[k].real() * sigma[k], unit * spec[k].imag() * sigma[k]};
    spec[nfft - k] = std::conj(spec[k]);
  }
  // DC and Nyquist real-valued; negligible energy, keep zero.
  spec[0] = cplx{};
  spec[half] = cplx{};

  // With ifft normalization 1/N the variance per sample would be
  // sum_k |S_k|^2 / N^2, so the samples are the unnormalized inverse:
  // sum_k PSD * df = total band power.
  dsp::fft_plan(nfft).inverse_unscaled(spec.data());
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = spec[i].real();
}

void add_baseband_noise(common::SampleRateHz fs, common::Hz carrier, const rvec& lowpass,
                        std::size_t decimation, const NoiseConditions& cond,
                        common::Rng& rng, cvec& bb) {
  const double fs_hz = fs.raw();
  if (bb.empty()) return;
  if (fs_hz <= 0.0) throw std::invalid_argument("sample rate must be > 0");
  if (decimation == 0) throw std::invalid_argument("decimation factor must be >= 1");
  if (lowpass.empty())
    throw std::invalid_argument("front-end filter needs at least one tap");

  // Every bin is independent (no Hermitian pairing: the process is complex);
  // bin j carries sigma[j] * rng.complex_gaussian(1.0): the draws land in
  // bin order, and the gather into bit-reversed order applies
  // complex_gaussian's sqrt(1/2) and then sigma[j] on the way (the sigma
  // table is stored in that order). The unnormalized inverse FFT makes the
  // per-sample variance sum_j sigma[j]^2, the filtered band power.
  const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(bb.size(), 2));
  const rvec& sigma = sigma_table(nfft, fs_hz, cond, carrier.raw(), decimation, lowpass);
  const dsp::FftPlan& plan = dsp::fft_plan(nfft);
  auto draws_l = dsp::Workspace::local().take_c_for_overwrite(nfft);
  const cplx* draws = draws_l->data();
  dsp::simd::fill_gaussian(rng, reinterpret_cast<double*>(draws_l->data()), 2 * nfft);
  auto x_l = dsp::Workspace::local().take_c_for_overwrite(nfft);
  cplx* x = x_l->data();
  const std::uint32_t* bitrev = plan.bitrev();
  const double unit = std::sqrt(1.0 / 2.0);
  for (std::size_t i = 0; i < nfft; ++i) {
    const cplx d = draws[bitrev[i]];
    x[i] = cplx{unit * d.real() * sigma[i], unit * d.imag() * sigma[i]};
  }
  plan.inverse_unscaled_bitrev(x);
  for (std::size_t i = 0; i < bb.size(); ++i) bb[i] += x[i];
}

}  // namespace vab::channel
