#include "net/app.hpp"

#include <algorithm>
#include <cmath>

namespace vab::net {

namespace {
std::uint16_t clamp_u16(double v) {
  return static_cast<std::uint16_t>(std::clamp(v, 0.0, 65535.0));
}
}  // namespace

Payload encode_reading(const SensorReading& r) {
  const std::uint16_t t =
      clamp_u16(std::round((r.temperature_c + 40.0) / kTempResolutionC));
  const std::uint16_t p = clamp_u16(std::round(r.pressure_kpa / kPressureResolutionKpa));
  Payload out;
  out.resize(kReadingBytes);
  out[0] = static_cast<std::uint8_t>(t >> 8);
  out[1] = static_cast<std::uint8_t>(t & 0xFF);
  out[2] = static_cast<std::uint8_t>(p >> 8);
  out[3] = static_cast<std::uint8_t>(p & 0xFF);
  out[4] = static_cast<std::uint8_t>(r.battery_mv >> 8);
  out[5] = static_cast<std::uint8_t>(r.battery_mv & 0xFF);
  return out;
}

std::optional<SensorReading> decode_reading(std::span<const std::uint8_t> data) {
  if (data.size() != kReadingBytes) return std::nullopt;
  SensorReading r;
  const auto t = static_cast<std::uint16_t>((data[0] << 8) | data[1]);
  const auto p = static_cast<std::uint16_t>((data[2] << 8) | data[3]);
  r.temperature_c = static_cast<double>(t) * kTempResolutionC - 40.0;
  r.pressure_kpa = static_cast<double>(p) * kPressureResolutionKpa;
  r.battery_mv = static_cast<std::uint16_t>((data[4] << 8) | data[5]);
  return r;
}

}  // namespace vab::net
