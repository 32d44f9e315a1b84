#include "net/mcs/mcs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "phy/ber.hpp"

namespace vab::net::mcs {

namespace {

/// Hamming(7,4) block failure probability at channel-bit error rate `p`:
/// the code corrects any single error in a 7-bit block, so a block fails
/// when two or more bits flip (the interleaver justifies the i.i.d.
/// assumption by spreading fade bursts across blocks).
double hamming74_block_failure(double p) {
  const double q = 1.0 - p;
  const double q6 = q * q * q * q * q * q;
  // The subtraction cancels to ~ -1e-17 for tiny p; clamp so the delivery
  // curve stays inside [0, 1] and monotone.
  return std::max(0.0, 1.0 - q6 * q - 7.0 * p * q6);
}

}  // namespace

McsEntry McsEntry::from_config(const phy::PhyConfig& phy,
                               const phy::FecConfig& fec_cfg) {
  return McsEntry{"config", phy.bitrate_bps, phy.uplink_code, fec_cfg.enable};
}

common::Db McsEntry::code_margin() const {
  switch (code) {
    case phy::UplinkCode::kMiller2: return common::Db{kMillerMarginDbPerDoubling};
    case phy::UplinkCode::kMiller4:
      return common::Db{2.0 * kMillerMarginDbPerDoubling};
    case phy::UplinkCode::kFm0: break;
  }
  return common::Db{0.0};
}

double McsEntry::ber(common::SnrDb snr_ref) const {
  // Energy conservation: the received power is fixed, so chip energy scales
  // as 1/chip_rate. The reference rung's offset is exactly 0.0 dB, keeping
  // its curve bit-identical to the legacy ber_fm0 path.
  const double offset_db =
      10.0 * std::log10(kReferenceChipRateHz / chip_rate().raw()) +
      code_margin().raw();
  const double snr_chip = std::pow(10.0, (snr_ref.raw() + offset_db) / 10.0);
  // A bit decision coherently combines chips_per_bit chips; FM0's two-chip
  // combining is the ber_fm0 convention, so the generic expression scales
  // the antipodal argument by chips_per_bit/2 (1.0 for FM0).
  const double combining = static_cast<double>(chips_per_bit()) / 2.0;
  return phy::ber_fm0(combining * snr_chip);
}

double McsEntry::frame_delivery_prob(common::SnrDb snr_ref,
                                     std::size_t payload_bits) const {
  const double p = ber(snr_ref);
  if (!fec) return std::pow(1.0 - p, static_cast<double>(payload_bits));
  // One Hamming block per 4 data bits (nibble-padded, matching FrameCodec).
  const double blocks = static_cast<double>((payload_bits + 3) / 4);
  return std::pow(1.0 - hamming74_block_failure(p), blocks);
}

common::SnrDb McsEntry::snr_for_delivery(double target,
                                         std::size_t payload_bits) const {
  if (!(target > 0.0 && target < 1.0))
    throw std::invalid_argument("delivery target outside (0, 1)");
  double lo = -40.0, hi = 40.0;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (frame_delivery_prob(common::SnrDb{mid}, payload_bits) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return common::SnrDb{0.5 * (lo + hi)};
}

std::size_t McsEntry::air_bits(std::size_t payload_bits) const {
  if (!fec) return payload_bits;
  return (payload_bits + 3) / 4 * 7;  // nibble-padded Hamming(7,4)
}

common::Seconds McsEntry::slot_duration(std::size_t slot_payload_bytes) const {
  // The whole frame (header + payload + CRC) on the air at this rung's
  // bitrate (FEC expansion included), 10 ms preamble/idle overhead, 20%
  // margin.
  const std::size_t frame_bits = wire_size(slot_payload_bytes) * 8;
  const double bits = static_cast<double>(air_bits(frame_bits));
  return common::Seconds{1.2 * (bits / bitrate_bps + 0.010)};
}

void McsEntry::apply(phy::PhyConfig& phy, phy::FecConfig& fec_cfg) const {
  phy.bitrate_bps = bitrate_bps;
  phy.uplink_code = code;
  fec_cfg.enable = fec;
}

McsLadder::McsLadder(std::vector<McsEntry> rungs) : rungs_(std::move(rungs)) {
  if (rungs_.empty()) throw std::invalid_argument("MCS ladder is empty");
  if (rungs_.size() > kMaxRungs)
    throw std::invalid_argument("MCS ladder exceeds kMaxRungs");
  for (std::size_t i = 1; i < rungs_.size(); ++i) {
    if (!(rungs_[i].data_rate_bps() > rungs_[i - 1].data_rate_bps()))
      throw std::invalid_argument("MCS ladder not ordered by data rate at rung " +
                                  std::to_string(i));
  }
  // Robustness order: a faster rung must also need strictly more SNR for
  // the same frame delivery, or "step down" would not buy robustness.
  for (std::size_t i = 1; i < rungs_.size(); ++i) {
    const common::SnrDb lo = rungs_[i - 1].snr_for_delivery(0.5, kValidationFrameBits);
    const common::SnrDb hi = rungs_[i].snr_for_delivery(0.5, kValidationFrameBits);
    if (!(hi > lo))
      throw std::invalid_argument(
          "MCS ladder not ordered by waterfall SNR at rung " + std::to_string(i));
  }
}

McsLadder McsLadder::default_ladder() {
  std::vector<McsEntry> rungs;
  rungs.push_back({"m4-125-fec", 125.0, phy::UplinkCode::kMiller4, true});
  rungs.push_back({"m2-250-fec", 250.0, phy::UplinkCode::kMiller2, true});
  rungs.push_back({"fm0-500-fec", 500.0, phy::UplinkCode::kFm0, true});
  rungs.push_back({"fm0-500", 500.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"fm0-1000", 1000.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"fm0-2000", 2000.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"fm0-4000", 4000.0, phy::UplinkCode::kFm0, false});
  return McsLadder(std::move(rungs));
}

const McsEntry& McsLadder::rung(std::size_t i) const {
  if (i >= rungs_.size()) throw std::out_of_range("MCS rung index");
  return rungs_[i];
}

}  // namespace vab::net::mcs
