// VabReader — the boat-side unit: projector downlink (PIE-modulated
// carrier), continuous carrier for backscatter, and the hydrophone uplink
// decode chain (SIC + FM0 demodulation + frame parsing).
#pragma once

#include <optional>

#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/mac.hpp"
#include "phy/modem.hpp"

namespace vab::core {

struct ReaderConfig {
  phy::PhyConfig phy{};
};

struct UplinkDecode {
  phy::DemodResult demod;
  std::optional<net::Frame> frame;  ///< set when CRC-valid
};

class VabReader {
 public:
  explicit VabReader(ReaderConfig cfg);

  /// Downlink waveform: carrier with the frame's PIE envelope, at unit
  /// amplitude (scale by the projector drive to get pressure).
  rvec make_downlink_waveform(const net::Frame& f) const;

  /// Continuous carrier of `n` samples for the backscatter phase.
  rvec make_carrier(std::size_t n) const;

  /// Expected uplink payload bits for a frame with `payload_bytes` payload.
  static std::size_t uplink_bits(std::size_t payload_bytes);

  /// Decodes an uplink capture into a frame.
  UplinkDecode decode_uplink(const rvec& passband, std::size_t payload_bytes) const;

  net::ReaderMac& mac() { return mac_; }
  const ReaderConfig& config() const { return cfg_; }

 private:
  ReaderConfig cfg_;
  phy::ReaderDemodulator demod_;
  net::ReaderMac mac_;
};

}  // namespace vab::core
