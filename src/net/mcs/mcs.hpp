// Modulation-and-coding-scheme (MCS) ladder for the backscatter uplink.
//
// The paper's link is fixed-rate: FM0 at 500 bps, uncoded. Its own range/SNR
// waterfall shows most deployments sit far above or far below that single
// operating point, so this module turns the three PHY knobs the codebase
// already models — chip rate (bitrate), line code (FM0 / Miller-M) and FEC
// strength (Hamming(7,4) + interleaver on/off) — into a validated ladder of
// rungs, each with an analytic BER / frame-delivery curve on a common SNR
// scale.
//
// SNR convention: every curve takes the link's chip SNR *as measured at the
// reference rung* (FM0 at 500 bps, chip rate 1000 Hz) — exactly the value
// the link budget produces for the paper's scenario; a budget evaluated at
// another chip rate converts with to_reference_scale. A rung converts to its
// own chip SNR by energy conservation (halving the chip rate doubles the
// energy per chip) plus a small clutter-rejection margin for Miller codes
// (data pushed away from the carrier residue that SIC must absorb).
//
// The ladder is a *validated table*: construction rejects ladders that are
// not totally ordered by data rate and by robustness (waterfall SNR), so
// rate adaptation can treat "up" and "down" as meaningful directions.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "phy/fec.hpp"
#include "phy/modem.hpp"

namespace vab::net::mcs {

/// Chip rate of the reference rung (FM0 at 500 bps): the scale every
/// analytic curve in this module takes its SNR argument on.
inline constexpr double kReferenceChipRateHz = 1000.0;

/// Converts a chip SNR measured at `chip_rate` (what LinkBudget emits for a
/// scenario) to the reference scale: the same received power spread over
/// kReferenceChipRateHz chips per second. Exactly +0.0 dB at 1 kHz.
inline common::SnrDb to_reference_scale(common::SnrDb snr_chip, common::Hz chip_rate) {
  return common::SnrDb{snr_chip.raw() +
                       10.0 * std::log10(chip_rate.raw() / kReferenceChipRateHz)};
}

/// Clutter-rejection margin per doubling of chips-per-bit over FM0: Miller
/// subcarriers move the data lobe away from the carrier residue, so the
/// effective post-SIC SNR improves even though AWGN performance alone would
/// not (the gain RFID readers exploit with Miller-4 at the range limit).
inline constexpr double kMillerMarginDbPerDoubling = 1.5;

/// Frame length (bits) used when validating ladder ordering.
inline constexpr std::size_t kValidationFrameBits = 96;

/// Hard cap on ladder size: the rung index rides a 4-bit field of the
/// query-frame MCS command byte.
inline constexpr std::size_t kMaxRungs = 16;

/// One rung: a (chip rate, line code, FEC) operating point with analytic
/// error curves. All members are value types; entries live in tables.
struct McsEntry {
  std::string name;                                ///< e.g. "fm0-500"
  double bitrate_bps = 500.0;                      ///< channel bit rate
  phy::UplinkCode code = phy::UplinkCode::kFm0;
  bool fec = false;                                ///< Hamming(7,4)+interleave

  /// The operating point a node's PHY/FEC configuration runs: the inverse
  /// of apply().
  static McsEntry from_config(const phy::PhyConfig& phy, const phy::FecConfig& fec_cfg);

  /// Chips per channel bit for the line code (2 / 4 / 8).
  std::size_t chips_per_bit() const { return phy::chips_per_bit(code); }
  common::Hz chip_rate() const {
    return common::Hz{static_cast<double>(chips_per_bit()) * bitrate_bps};
  }
  /// Net data rate after the FEC rate penalty (4/7 when coded).
  double data_rate_bps() const {
    return bitrate_bps * (fec ? 4.0 / 7.0 : 1.0);
  }
  /// Miller clutter-rejection margin relative to FM0 (>= 0 dB).
  common::Db code_margin() const;

  /// Channel-bit error rate at reference-scale SNR `snr_ref`.
  double ber(common::SnrDb snr_ref) const;

  /// Probability a `payload_bits`-bit frame decodes (CRC-clean) at
  /// reference-scale SNR, including the FEC's single-error-per-block
  /// correction when enabled. At the reference rung this reproduces the
  /// legacy uncoded FM0 expression bit-for-bit.
  double frame_delivery_prob(common::SnrDb snr_ref, std::size_t payload_bits) const;

  /// Reference-scale SNR where frame delivery crosses `target` (in (0, 1))
  /// for a `payload_bits` frame (bisection; delivery is monotone in SNR).
  common::SnrDb snr_for_delivery(double target, std::size_t payload_bits) const;

  /// Bits on the air for `payload_bits` of frame data (FEC expansion).
  std::size_t air_bits(std::size_t payload_bits) const;

  /// Uplink slot duration for a `slot_payload_bytes` MAC payload: frame
  /// bytes on the air (FEC expansion included) plus preamble/idle overhead
  /// and margin. MacTiming::slot_duration_s delegates here.
  common::Seconds slot_duration(std::size_t slot_payload_bytes) const;

  /// Reconfigure-on-change hook (the dragonradio MCS.hh pattern): writes
  /// this rung's modem + FEC state into the node's PHY configuration.
  void apply(phy::PhyConfig& phy, phy::FecConfig& fec_cfg) const;
};

/// A validated, totally ordered rate ladder. Ordering invariants (enforced
/// at construction, throwing std::invalid_argument):
///  - 1..kMaxRungs rungs;
///  - data_rate_bps strictly increasing with rung index (throughput order);
///  - waterfall SNR (where frame delivery crosses 50% for a
///    kValidationFrameBits frame) strictly increasing with rung index
///    (robustness order) — faster rungs need more SNR.
class McsLadder {
 public:
  explicit McsLadder(std::vector<McsEntry> rungs);

  /// The shipped ladder: Miller-4+FEC at 125 bps up to uncoded FM0 at
  /// 4 kbps, with the paper's operating point at index kPaperRung.
  static McsLadder default_ladder();
  /// Index of the paper's fixed-rate operating point (FM0, 500 bps,
  /// uncoded) within default_ladder().
  static constexpr std::size_t kPaperRung = 3;

  std::size_t size() const { return rungs_.size(); }
  const McsEntry& rung(std::size_t i) const;
  const std::vector<McsEntry>& rungs() const { return rungs_; }

 private:
  std::vector<McsEntry> rungs_;
};

}  // namespace vab::net::mcs
