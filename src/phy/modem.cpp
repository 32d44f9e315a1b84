#include "phy/modem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"
#include "phy/equalizer.hpp"
#include "phy/fm0.hpp"
#include "phy/miller.hpp"

namespace vab::phy {

std::size_t PhyConfig::decimation() const {
  const double target_rate =
      static_cast<double>(kTargetSamplesPerChip) * chip_rate_hz();
  const auto m = static_cast<std::size_t>(std::floor(fs_hz / target_rate));
  return std::max<std::size_t>(m, 1);
}

BackscatterModulator::BackscatterModulator(PhyConfig cfg) : cfg_(cfg) {
  if (cfg_.fs_hz <= 0.0 || cfg_.bitrate_bps <= 0.0)
    throw std::invalid_argument("bad PHY config");
  if (cfg_.chip_rate_hz() >= cfg_.fs_hz / 4.0)
    throw std::invalid_argument("chip rate too high for the sample rate");
}

namespace {
bitvec encode_uplink(const bitvec& bits, UplinkCode code) {
  switch (code) {
    case UplinkCode::kMiller2: return miller_encode(bits, 2);
    case UplinkCode::kMiller4: return miller_encode(bits, 4);
    case UplinkCode::kFm0: break;
  }
  return fm0_encode(bits);
}

bitvec decode_uplink_soft(const rvec& soft, UplinkCode code) {
  switch (code) {
    case UplinkCode::kMiller2: return miller_decode_soft(soft, 2);
    case UplinkCode::kMiller4: return miller_decode_soft(soft, 4);
    case UplinkCode::kFm0: break;
  }
  return fm0_decode_soft(soft);
}
}  // namespace

std::size_t BackscatterModulator::waveform_length(std::size_t n_payload_bits) const {
  const std::size_t chips = 2 * kIdleChips + kSettleChips +
                            fm0_preamble_chips().size() +
                            cfg_.chips_per_bit() * n_payload_bits;
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  return static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
}

bitvec BackscatterModulator::switch_waveform(const bitvec& payload_bits) const {
  bitvec wave;
  switch_waveform(payload_bits, wave);
  return wave;
}

void BackscatterModulator::chip_sequence(const bitvec& payload_bits,
                                         bitvec& chips) const {
  chips.clear();
  chips.insert(chips.end(), kIdleChips, 0);  // absorptive idle (harvesting)
  for (std::size_t i = 0; i < kSettleChips; ++i)
    chips.push_back(static_cast<std::uint8_t>(i & 1u));  // alternating pilot
  const bitvec& pre = fm0_preamble_chips();
  chips.insert(chips.end(), pre.begin(), pre.end());
  const bitvec data_chips = encode_uplink(payload_bits, cfg_.uplink_code);
  chips.insert(chips.end(), data_chips.begin(), data_chips.end());
  chips.insert(chips.end(), kIdleChips, 0);
}

void BackscatterModulator::switch_waveform(const bitvec& payload_bits,
                                           bitvec& wave) const {
  auto chips_l = dsp::Workspace::local().take_b(0);
  bitvec& chips = *chips_l;
  chip_sequence(payload_bits, chips);
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  const auto n =
      static_cast<std::size_t>(std::ceil(static_cast<double>(chips.size()) * spc));
  wave.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
    wave[i] = chips[std::min(c, chips.size() - 1)];
  }
}

void BackscatterModulator::switch_runs(const bitvec& payload_bits,
                                       std::vector<SwitchRun>& runs) const {
  auto chips_l = dsp::Workspace::local().take_b(0);
  bitvec& chips = *chips_l;
  chip_sequence(payload_bits, chips);
  const std::size_t active_end =
      kIdleChips + kSettleChips + fm0_preamble_chips().size() +
      cfg_.chips_per_bit() * payload_bits.size();
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  const auto chip_of = [spc](std::size_t i) {
    return static_cast<std::size_t>(static_cast<double>(i) / spc);
  };
  runs.clear();
  runs.reserve(chips.size());
  for (std::size_t c = 0; c < chips.size(); ++c) {
    // First sample whose chip index reaches c: start from ceil(c * spc) and
    // settle on the per-sample rule's rounding.
    auto i = static_cast<std::size_t>(std::ceil(static_cast<double>(c) * spc));
    while (i > 0 && chip_of(i - 1) >= c) --i;
    while (chip_of(i) < c) ++i;
    runs.push_back({i, chips[c], c >= kIdleChips && c < active_end});
  }
}

bitvec BackscatterModulator::active_mask(std::size_t n_payload_bits) const {
  bitvec mask;
  active_mask(n_payload_bits, mask);
  return mask;
}

void BackscatterModulator::active_mask(std::size_t n_payload_bits, bitvec& mask) const {
  const std::size_t pre = fm0_preamble_chips().size();
  const std::size_t active_chips =
      kSettleChips + pre + cfg_.chips_per_bit() * n_payload_bits;
  const std::size_t chips = 2 * kIdleChips + active_chips;
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  const auto n = static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
  mask.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
    mask[i] = (c >= kIdleChips && c < kIdleChips + active_chips) ? 1 : 0;
  }
}

ReaderDemodulator::ReaderDemodulator(PhyConfig cfg) : cfg_(cfg) {
  if (cfg_.fs_hz <= 0.0 || cfg_.bitrate_bps <= 0.0)
    throw std::invalid_argument("bad PHY config");
  // The anti-alias filter needs a very deep stopband: the -2fc mixing image
  // of the carrier blast can sit ~90 dB above the backscatter sidebands and
  // would alias into baseband at the decimation step. Kaiser beta 12 buys
  // ~118 dB of stopband attenuation.
  const double cutoff = 2.5 * cfg_.chip_rate_hz();
  lowpass_taps_ = dsp::design_lowpass(cutoff, cfg_.fs_hz, cfg_.lowpass_taps,
                                      dsp::WindowType::kKaiser, 12.0);
  // Prefix sums H[i] = sum_{k<i} h[k] and T[i] = sum_{k<i} h[k] e^{2j omega k}
  // for the envelope front end, stored by residue of i mod decimation() so
  // that the outputs a step meets read one contiguous row. The e^{2j omega k}
  // come from the cached e^{-2j omega k} table the front end rotates by.
  const std::size_t taps = lowpass_taps_.size();
  const std::size_t m = cfg_.decimation();
  const cvec* rot = dsp::cached_tone(-2.0 * cfg_.carrier_hz, cfg_.fs_hz, 0.0, taps);
  const double omega = common::kTwoPi * cfg_.carrier_hz / cfg_.fs_hz;
  rvec h_prefix(taps + 1, 0.0);
  cvec t_prefix(taps + 1, cplx{});
  for (std::size_t k = 0; k < taps; ++k) {
    const double h = lowpass_taps_[k];
    const cplx e = rot ? std::conj((*rot)[k])
                       : std::polar(1.0, 2.0 * omega * static_cast<double>(k));
    h_prefix[k + 1] = h_prefix[k] + h;
    t_prefix[k + 1] = t_prefix[k] + h * e;
  }
  step_h_all_ = h_prefix[taps];
  step_t_all_ = t_prefix[taps];
  // A step reaches the outputs of one row, widened to whole groups of
  // dsp::simd::kFrontEndGroup from a group start (front_end): up to
  // kFrontEndGroup - 1 entries before the row and up to step_width_ - 1
  // past it, so the rows sit between that many zeros. Row r's entries start
  // at step_rows_[r].
  constexpr std::size_t kGroup = dsp::simd::kFrontEndGroup;
  const std::size_t longest_row = (taps - 1) / m + 1;
  step_width_ = (kGroup - 1 + longest_row + kGroup - 1) / kGroup * kGroup;
  const auto pad = [this](std::size_t zeros) {
    step_h_.insert(step_h_.end(), zeros, 0.0);
    step_tr_.insert(step_tr_.end(), zeros, 0.0);
    step_ti_.insert(step_ti_.end(), zeros, 0.0);
  };
  pad(kGroup);
  for (std::size_t row = 0; row < m; ++row) {
    step_rows_.push_back(step_h_.size());
    for (std::size_t i = row; i < taps; i += m) {
      step_h_.push_back(h_prefix[i]);
      step_tr_.push_back(t_prefix[i].real());
      step_ti_.push_back(t_prefix[i].imag());
    }
    pad(step_width_);
  }

  // Baseband sync reference at the (possibly fractional) samples-per-chip
  // rate. The reference spans the settle pilot plus the Barker preamble: the
  // alternating pilot pins chip timing (a one-chip slip flips every pilot
  // chip) while Barker's autocorrelation pins which chip is which.
  const double spc = cfg_.samples_per_chip_bb();
  pre_levels_.reserve(BackscatterModulator::kSettleChips + fm0_preamble_chips().size());
  for (std::size_t i = 0; i < BackscatterModulator::kSettleChips; ++i)
    pre_levels_.push_back((i & 1u) ? 1.0 : -1.0);
  for (double v : fm0_preamble_levels()) pre_levels_.push_back(v);
  const auto ref_len =
      static_cast<std::size_t>(std::floor(static_cast<double>(pre_levels_.size()) * spc));
  // Zero-mean the reference: the AC-coupled front end removes DC, and a
  // DC-free reference cannot correlate with residual carrier transients.
  double pre_mean = 0.0;
  for (double v : pre_levels_) pre_mean += v;
  pre_mean /= static_cast<double>(pre_levels_.size());
  cvec ref(ref_len);
  for (std::size_t i = 0; i < ref_len; ++i) {
    const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
    ref[i] = cplx{pre_levels_[std::min(c, pre_levels_.size() - 1)] - pre_mean, 0.0};
  }
  dsp::runs_of(ref, sync_ref_);
}

void ReaderDemodulator::front_end(const rvec& passband, cvec& out) const {
  VAB_STAGE("demod.baseband");
  // Downconvert, then anti-alias + decimate in one decimated FIR pass: only
  // the kept baseband samples are computed, so the 255-tap filter costs
  // 1/decimation() of full-rate filtering while producing bit-identical
  // outputs.
  auto bb_l = dsp::Workspace::local().take_c(0);
  cvec& bb = *bb_l;
  dsp::downconvert(passband, cfg_.carrier_hz, cfg_.fs_hz, 0.0, bb);
  const std::size_t m = cfg_.decimation();
  // Skip the filter warm-up: while the delay line fills, the output ramps
  // from zero to the blast level, and that ramp would ring the carrier
  // notch for thousands of samples.
  const std::size_t warmup = cfg_.lowpass_taps + 8 * m;
  dsp::fir_filter_decimate(lowpass_taps_, bb, m, warmup, out);
}

void ReaderDemodulator::front_end(const dsp::StepSignal& capture, cvec& out) const {
  VAB_STAGE("demod.baseband");
  const double omega = common::kTwoPi * cfg_.carrier_hz / cfg_.fs_hz;
  if (capture.omega != omega)
    throw std::invalid_argument("front_end: capture carrier is not the demodulator's");
  const std::size_t m = cfg_.decimation();
  const std::size_t taps = lowpass_taps_.size();
  const std::size_t offset = cfg_.lowpass_taps + 8 * m;  // front_end's warm-up
  if (offset >= capture.length) {
    out.clear();
    return;
  }
  const std::size_t n_out = (capture.length - offset - 1) / m + 1;
  // Output j (sample n = offset + j m) sums h[k] v(n - k) over the window.
  // In steps of v: every step at p <= n - L + 1 has left the window and adds
  // up to the envelope v(n - L + 1), which meets all L taps (H[L], T[L]);
  // a step Δ at p inside it meets taps [0, n - p]: Δ H[n - p + 1]. The
  // outputs a step is inside of read one residue row of the prefix tables.
  //
  // Each step is listed with the outputs it reaches, widened to step_width_
  // outputs from a group start, and the kernel gathers every output's sum
  // over the steps that reach it, in step order. The outputs a widened step
  // adds to but does not reach read table zeros (the row padding, or H[0] =
  // T[0] = 0 just before a row) and add a signed zero, which leaves every
  // sum as it was: a sum starts at +0.0 and so is never -0.0, and
  // x + (+-0.0) = x for every other x.
  constexpr std::size_t kGroup = dsp::simd::kFrontEndGroup;
  thread_local std::vector<dsp::simd::FrontEndStep> steps;
  steps.clear();
  cplx prev{};
  std::size_t j0 = 0, n0 = offset;  // first output at or past the step
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
    const std::size_t idx0 = n0 - p + 1;  // >= 1
    if (idx0 >= taps) continue;           // already whole-window at output 0
    // Row and column of idx0; past output 0, idx0 <= m (no division), so
    // the column is 0 or 1 and the lead entries before it are zeros.
    const std::size_t row = idx0 < m ? idx0 : idx0 % m;
    const std::size_t q0 = step_rows_[row] + (idx0 < m ? 0 : idx0 / m);
    const std::size_t lead = j0 % kGroup;
    steps.push_back({dr, di, q0 - lead, j0 - lead});
  }

  // The envelope each output's window holds whole: outputs whose window
  // starts in run r (starts[r] <= n + 1 - taps < run_end(r)) take its
  // value, the rest (windows starting before the first run) zero.
  out.assign(n_out, cplx{});
  std::size_t j = 0;
  std::size_t w0 = offset + 1;  // window start of output j, plus taps
  for (std::size_t r = 0; r < capture.runs() && j < n_out; ++r) {
    for (; j < n_out && w0 < capture.starts[r] + taps; w0 += m) ++j;
    for (; j < n_out && w0 < capture.run_end(r) + taps; w0 += m)
      out[j++] = capture.values[r];
  }

  // The image term rotates by e^{-2j omega n}, as the oscillator cache holds
  // it (the constructor took T's rotations from the same table).
  const cvec* rot =
      dsp::cached_tone(-2.0 * cfg_.carrier_hz, cfg_.fs_hz, 0.0, capture.length);
  auto e_l = dsp::Workspace::local().take_c(rot ? 0 : n_out);
  if (!rot) {
    for (std::size_t i = 0; i < n_out; ++i)
      (*e_l)[i] = std::polar(1.0, -2.0 * omega * static_cast<double>(offset + i * m));
  }
  dsp::simd::FrontEndSteps in;
  in.steps = steps.data();
  in.count = steps.size();
  in.width = step_width_;
  in.h = step_h_.data();
  in.tr = step_tr_.data();
  in.ti = step_ti_.data();
  in.h_all = step_h_all_;
  in.t_r = step_t_all_.real();
  in.t_i = step_t_all_.imag();
  in.e = rot ? rot->data() + offset : e_l->data();
  in.stride = rot ? m : 1;
  dsp::simd::front_end_outputs(in, out.data(), n_out);
}

namespace {
void cancel_self_interference(const PhyConfig& cfg, cvec& bb, double* suppression_db) {
  VAB_STAGE("demod.sic");
  SelfInterferenceCanceller sic(cfg.sic, cfg.chip_rate_hz(), cfg.fs_baseband_hz());
  sic.process_inplace(bb);
  if (suppression_db) *suppression_db = sic.last_suppression_db();
}
}  // namespace

void ReaderDemodulator::to_baseband(const rvec& passband, cvec& out,
                                    double* suppression_db) const {
  front_end(passband, out);
  cancel_self_interference(cfg_, out, suppression_db);
}

DemodResult ReaderDemodulator::demodulate(const rvec& passband,
                                          std::size_t expected_bits) const {
  auto bb_l = dsp::Workspace::local().take_c(0);
  cvec& bb = *bb_l;
  front_end(passband, bb);
  return demodulate_baseband(bb, expected_bits);
}

DemodResult ReaderDemodulator::demodulate_baseband(cvec& bb,
                                                   std::size_t expected_bits) const {
  DemodResult res;
  cancel_self_interference(cfg_, bb, &res.sic_suppression_db);

  // Sync against the cached zero-meaned reference (built at construction).
  const double spc = cfg_.samples_per_chip_bb();
  const rvec& pre_levels = pre_levels_;

  const auto peak = [&] {
    VAB_STAGE("demod.sync");
    return dsp::find_peak(bb, sync_ref_, cfg_.sync_threshold);
  }();
  if (!peak) return res;
  res.sync_found = true;
  res.corr_peak = peak->value;
  res.carrier_phase_rad = std::arg(peak->raw);
  res.sync_index_bb = peak->index;

  // Matched filter per chip over the whole frame (training + data).
  const std::size_t n_known = pre_levels.size();
  const std::size_t n_data = cfg_.chips_per_bit() * expected_bits;
  const std::size_t n_total = n_known + n_data;
  auto chips_l = dsp::Workspace::local().take_c(n_total);
  cvec& chips = *chips_l;
  {
    VAB_STAGE("demod.chips");
    for (std::size_t c = 0; c < n_total; ++c) {
      // Integrate the central 60% of the chip: the anti-alias filter smears
      // the chip edges, and including them both biases the soft value and
      // inflates the noise estimate.
      const double t0 =
          static_cast<double>(peak->index) + (static_cast<double>(c) + 0.2) * spc;
      const double t1 = t0 + 0.6 * spc;
      cplx acc{};
      int cnt = 0;
      // NOLINTNEXTLINE(cert-flp30-c): t0 is fractional (sub-sample sync) and
      // every pinned output depends on this exact accumulate-by-1.0 rounding;
      // an integer counter with t0 + k rounds differently at the last bit.
      for (double t = t0; t < t1 - 0.5; t += 1.0) {
        if (t >= 0.0 && t < static_cast<double>(bb.size() - 1)) {
          acc += dsp::sample_at(bb, t);
          ++cnt;
        }
      }
      if (cnt > 0) acc /= static_cast<double>(cnt);
      chips[c] = acc;
    }
  }

  // Equalize using the known training chips (pilot + preamble): shallow-water
  // multipath lands fractions of a chip late and fades coherently; the
  // LS-fitted chip-spaced channel + zero-forcing inverse restores the
  // constellation. Falls back to plain derotation when disabled or when the
  // fit fails.
  cplx derot = std::exp(cplx{0.0, -res.carrier_phase_rad});
  if (cfg_.enable_equalizer && n_known >= 2 * kChannelTaps + 4) {
    VAB_STAGE("demod.equalize");
    try {
      const cvec known_chips(chips.begin(),
                             chips.begin() + static_cast<std::ptrdiff_t>(n_known));
      const auto est =
          estimate_channel_ls(known_chips, pre_levels, kChannelTaps, 1);
      res.channel_fit_error = est.fit_error;
      std::size_t delay = 0;
      const cvec w = design_zf_equalizer(est, kEqualizerTaps, delay);
      cvec shifted = chips;
      for (auto& v : shifted) v -= est.baseline;
      // Copied, not move-assigned: `chips` is a workspace lease and must go
      // back to the arena with its own buffer.
      const cvec equalized = equalize(shifted, w, delay);
      chips.assign(equalized.begin(), equalized.end());
      // Residual complex gain after equalization, from the training region.
      cplx g{};
      for (std::size_t c = 0; c < n_known; ++c) g += chips[c] * pre_levels[c];
      derot = std::abs(g) > 0.0 ? std::conj(g) / std::abs(g) : cplx{1.0, 0.0};
    } catch (const std::exception&) {
      // Singular fit (e.g. no signal): keep the unequalized chips.
    }
  }

  const std::size_t n_chips = n_data;
  auto soft_l = dsp::Workspace::local().take_r(n_chips);
  auto mags_l = dsp::Workspace::local().take_r(n_chips);
  rvec& soft = *soft_l;
  rvec& mags = *mags_l;
  for (std::size_t c = 0; c < n_chips; ++c) {
    soft[c] = (chips[n_known + c] * derot).real();
    mags[c] = std::abs(soft[c]);
  }

  // Remove residual baseline drift (SIC convergence transient) in two
  // passes. Pass 1: a centered moving average estimates the baseline — FM0
  // data is balanced, so the local chip mean is mostly baseline, but random
  // data imbalance leaks modulation into it. Pass 2 (decision-directed):
  // strip the modulation using the pass-1 chip signs, then re-estimate the
  // baseline from the residual alone, which is modulation-free at high SNR.
  if (n_chips > 0) {
    auto moving_mean = [n_chips](const rvec& v, std::size_t half) {
      rvec m(n_chips);
      for (std::size_t c = 0; c < n_chips; ++c) {
        const std::size_t lo = c >= half ? c - half : 0;
        const std::size_t hi = std::min(c + half, n_chips - 1);
        double acc = 0.0;
        for (std::size_t k = lo; k <= hi; ++k) acc += v[k];
        m[c] = acc / static_cast<double>(hi - lo + 1);
      }
      return m;
    };

    const rvec base1 = moving_mean(soft, 4);
    rvec pass1(n_chips);
    double amp = 0.0;
    for (std::size_t c = 0; c < n_chips; ++c) {
      pass1[c] = soft[c] - base1[c];
      amp += std::abs(pass1[c]);
    }
    amp /= static_cast<double>(n_chips);

    rvec residual(n_chips);
    for (std::size_t c = 0; c < n_chips; ++c)
      residual[c] = soft[c] - (pass1[c] >= 0.0 ? amp : -amp);
    const rvec base2 = moving_mean(residual, 4);
    for (std::size_t c = 0; c < n_chips; ++c) {
      soft[c] -= base2[c];
      mags[c] = std::abs(soft[c]);
    }
  }

  {
    VAB_STAGE("demod.decode");
    res.bits = decode_uplink_soft(soft, cfg_.uplink_code);
  }

  // Chip-SNR estimate: signal power from the mean magnitude, noise from the
  // spread around +/- that level.
  if (!mags.empty()) {
    const double a = common::mean(mags);
    double nvar = 0.0;
    for (std::size_t c = 0; c < soft.size(); ++c) {
      const double err = mags[c] - a;
      nvar += err * err;
    }
    nvar /= static_cast<double>(soft.size());
    res.snr_db = 10.0 * std::log10(std::max(a * a, 1e-30) / std::max(nvar, 1e-30));
  }
  return res;
}

}  // namespace vab::phy
