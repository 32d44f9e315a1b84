// The VAB uplink modem: node-side backscatter modulator (switch-state
// waveform) and reader-side demodulator chain.
//
// Reader receive chain:
//   passband -> complex downconversion at the carrier -> anti-alias FIR ->
//   decimation -> self-interference cancellation -> preamble correlation
//   (timing + phase) -> per-chip matched filter -> coherent derotation ->
//   FM0 soft decode -> bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "dsp/step_signal.hpp"
#include "phy/sic.hpp"

namespace vab::phy {

/// Uplink chip coding. FM0 is the paper's operating point; Miller-M trades
/// M x bandwidth for data energy pushed further from the carrier residue.
enum class UplinkCode { kFm0, kMiller2, kMiller4 };

/// Chips per channel bit for a line code (2 / 4 / 8).
inline std::size_t chips_per_bit(UplinkCode code) {
  switch (code) {
    case UplinkCode::kMiller2: return 4;
    case UplinkCode::kMiller4: return 8;
    case UplinkCode::kFm0: break;
  }
  return 2;
}

/// Target baseband samples per chip after decimation (actual value may be
/// fractional; the demodulator interpolates).
inline constexpr std::size_t kTargetSamplesPerChip = 8;
inline constexpr std::size_t kChannelTaps = 3;    ///< chip-spaced channel estimate length
inline constexpr std::size_t kEqualizerTaps = 7;  ///< zero-forcing equalizer length

struct PhyConfig {
  double fs_hz = 192000.0;       ///< passband simulation rate
  double carrier_hz = 18500.0;   ///< piezo resonance
  double bitrate_bps = 500.0;    ///< chip rate is chips_per_bit() x this
  UplinkCode uplink_code = UplinkCode::kFm0;
  double sync_threshold = 0.45;  ///< normalized correlation acceptance
  std::size_t lowpass_taps = 255;
  SicConfig sic{};
  /// Preamble-trained chip-rate equalizer (set false for the ablation).
  bool enable_equalizer = true;

  std::size_t chips_per_bit() const { return phy::chips_per_bit(uplink_code); }
  double chip_rate_hz() const {
    return static_cast<double>(chips_per_bit()) * bitrate_bps;
  }
  /// Integer decimation factor from fs to the baseband processing rate.
  std::size_t decimation() const;
  double fs_baseband_hz() const { return fs_hz / static_cast<double>(decimation()); }
  double samples_per_chip_bb() const { return fs_baseband_hz() / chip_rate_hz(); }

  /// Typed view of the chip rate for the strong-unit link-budget API.
  common::Hz chip_rate() const { return common::Hz{chip_rate_hz()}; }
};

/// One run of `BackscatterModulator::switch_waveform`'s output.
struct SwitchRun {
  std::size_t start = 0;   ///< first sample of the run
  std::uint8_t state = 0;  ///< switch state on the run
  bool active = false;     ///< active_mask on the run
};

/// Node-side modulator: produces the per-sample switch state (0/1 at fs)
/// for a frame = [idle pad][preamble chips][FM0-coded payload][idle pad].
class BackscatterModulator {
 public:
  explicit BackscatterModulator(PhyConfig cfg);

  /// Switch state for each passband sample.
  bitvec switch_waveform(const bitvec& payload_bits) const;

  /// Out-parameter form; allocation-free when `wave` has capacity.
  void switch_waveform(const bitvec& payload_bits, bitvec& wave) const;

  /// 1 where the frame (preamble + payload chips) is active, 0 during the
  /// idle padding. Polarity-modulated nodes only toggle inside the active
  /// region; outside it they sit absorptive (harvesting).
  bitvec active_mask(std::size_t n_payload_bits) const;

  /// Out-parameter form of `active_mask`.
  void active_mask(std::size_t n_payload_bits, bitvec& mask) const;

  /// `switch_waveform` and `active_mask` as runs, one per chip: run i covers
  /// samples [start_i, start_{i+1}), the last one up to `waveform_length`.
  /// The starts follow the per-sample rule (sample i is in chip
  /// size_t(i / samples-per-chip)), so the runs expand to both exactly.
  void switch_runs(const bitvec& payload_bits, std::vector<SwitchRun>& runs) const;

  /// Number of passband samples `switch_waveform` returns for a payload.
  std::size_t waveform_length(std::size_t n_payload_bits) const;

  /// Idle padding before/after the frame, in chips.
  static constexpr std::size_t kIdleChips = 32;
  /// Alternating pilot chips between idle and preamble. Modulation onset
  /// steps the mean reflection (on-off keying is not DC-free); the pilot
  /// lets the reader's AC-coupled front end settle onto the in-frame
  /// baseline before the sync pattern arrives.
  static constexpr std::size_t kSettleChips = 32;

  const PhyConfig& config() const { return cfg_; }

 private:
  /// Idle pad, settle pilot, preamble, line-coded payload, idle pad.
  void chip_sequence(const bitvec& payload_bits, bitvec& chips) const;

  PhyConfig cfg_;
};

struct DemodResult {
  bool sync_found = false;
  bitvec bits;                 ///< decoded payload bits (empty if no sync)
  double corr_peak = 0.0;      ///< normalized preamble correlation, exact at the peak
  double carrier_phase_rad = 0.0;
  double snr_db = 0.0;         ///< post-processing chip SNR estimate
  double sic_suppression_db = 0.0;
  std::size_t sync_index_bb = 0;
  double channel_fit_error = 0.0;  ///< LS residual of the channel estimate
};

class ReaderDemodulator {
 public:
  explicit ReaderDemodulator(PhyConfig cfg);

  /// Demodulates `expected_bits` payload bits from a passband capture:
  /// `front_end`, then `demodulate_baseband`.
  DemodResult demodulate(const rvec& passband, std::size_t expected_bits) const;

  /// The linear half of the receive chain: downconversion at the carrier and
  /// the decimating anti-alias FIR, from the passband capture to complex
  /// baseband at `fs_baseband_hz()`. Only kept samples are computed, so cost
  /// scales with the baseband rate. Anything added to the capture reaches the
  /// output through this filter alone, which is why additive noise can be
  /// drawn at baseband instead (channel::add_baseband_noise).
  void front_end(const rvec& passband, cvec& out) const;

  /// `front_end` on a capture given as its envelope at this carrier: the
  /// same outputs up to rounding, summed over the runs in each 255-sample
  /// window. Downconverting Re{v e^{j omega i}} gives v/2 plus the image
  /// conj(v)/2 e^{-2j omega i}, so an output at sample n is
  ///   sum over runs of v (H[hi] - H[lo]) / 2
  ///              + e^{-2j omega n} conj(v) (T[hi] - T[lo]) / 2,
  /// with H and T the prefix sums of h[k] and h[k] e^{2j omega k}. The image
  /// stays: the low-pass rejects it only under a constant envelope, and
  /// instantaneous chip edges leak it at -29 dB of the backscatter swing.
  /// Throws std::invalid_argument when the capture's carrier is not this
  /// demodulator's.
  void front_end(const dsp::StepSignal& capture, cvec& out) const;

  /// The rest of the chain on `front_end` output: self-interference
  /// cancellation (in place on `bb`), sync, chip integration, equalizer and
  /// line decode.
  DemodResult demodulate_baseband(cvec& bb, std::size_t expected_bits) const;

  /// The baseband (post-SIC) signal, for diagnostics and benches:
  /// `front_end`, then the canceller.
  void to_baseband(const rvec& passband, cvec& out,
                   double* suppression_db = nullptr) const;

  /// The anti-alias FIR prototype `front_end` runs at `fs_hz`.
  const rvec& lowpass_taps() const { return lowpass_taps_; }

  /// The sync reference `demodulate_baseband` correlates against.
  const dsp::StepSignal& sync_reference() const { return sync_ref_; }

  const PhyConfig& config() const { return cfg_; }

 private:
  PhyConfig cfg_;
  // Designed/derived once at construction so per-frame demodulation does not
  // redo filter design or reference synthesis.
  rvec lowpass_taps_;  ///< anti-alias FIR prototype
  // Envelope front end: the prefix sums H and T over i < lowpass taps, row
  // r of each holding i = r, r + m, r + 2m, ... (m = decimation()), each row
  // between zero pads.
  rvec step_h_;
  rvec step_tr_;
  rvec step_ti_;
  std::vector<std::size_t> step_rows_;  ///< row r starts at step_rows_[r]
  std::size_t step_width_ = 0;          ///< outputs per step in the gather
  double step_h_all_ = 0.0;             ///< H over all taps
  cplx step_t_all_;                     ///< T over all taps
  rvec pre_levels_;    ///< settle pilot + preamble chip levels
  /// Zero-meaned baseband-rate sync reference, one run per stretch of equal
  /// chip levels.
  dsp::StepSignal sync_ref_;
};

}  // namespace vab::phy
