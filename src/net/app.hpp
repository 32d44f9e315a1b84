// Application-layer sensor payloads for coastal-monitoring nodes.
//
// Readings are packed fixed-point to keep uplink frames short: at 500 bps a
// byte costs 16 ms of airtime, so a full report is 6 bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/frame.hpp"

namespace vab::net {

struct SensorReading {
  double temperature_c = 0.0;   ///< [-40, +87.67] at 1/500 C resolution
  double pressure_kpa = 0.0;    ///< [0, 6553.5] at 0.1 kPa resolution
  std::uint16_t battery_mv = 0; ///< storage-capacitor voltage (energy state)
};

/// Wire size of a packed reading (2 bytes per field). The MAC payload
/// budget and the inventory engine size slots from this.
inline constexpr std::size_t kReadingBytes = 6;

/// Packs a reading into kReadingBytes (2 per field, big-endian fixed point),
/// as an inline frame payload.
Payload encode_reading(const SensorReading& r);

/// Unpacks; nullopt if the buffer is not exactly kReadingBytes.
std::optional<SensorReading> decode_reading(std::span<const std::uint8_t> data);

/// Round-trip quantization error bounds, used by tests.
inline constexpr double kTempResolutionC = 1.0 / 500.0;
inline constexpr double kPressureResolutionKpa = 0.1;

}  // namespace vab::net
