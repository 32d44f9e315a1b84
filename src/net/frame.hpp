// VAB link-layer frame format.
//
// Uplink frames ride on the FM0 backscatter PHY; downlink commands ride on
// PIE. Both use the same byte layout:
//   [addr:1][type:1][seq:1][len:1][payload:len][crc16:2]
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace vab::net {

/// Broadcast address (all nodes).
inline constexpr std::uint8_t kBroadcastAddr = 0xFF;

enum class FrameType : std::uint8_t {
  kQuery = 0x01,        ///< reader -> node: report your sensor data
  kSensorReport = 0x10, ///< node -> reader: sensor payload
  kAck = 0x20,          ///< reader -> node: report received
};

/// Serialized frame size in bytes for a `payload_bytes` payload:
/// 4 header bytes + payload + 2 CRC bytes.
constexpr std::size_t wire_size(std::size_t payload_bytes) {
  return 4 + payload_bytes + 2;
}

struct Frame {
  std::uint8_t addr = 0;     ///< destination (downlink) or source (uplink)
  FrameType type = FrameType::kQuery;
  std::uint8_t seq = 0;
  bytes payload;

  /// Serialized size in bytes including CRC.
  std::size_t wire_size() const { return net::wire_size(payload.size()); }
};

/// Serializes with CRC appended.
bytes serialize(const Frame& f);

/// Serialized frame as bits (MSB-first), ready for the PHY.
bitvec serialize_bits(const Frame& f);

/// Why a wire buffer failed to parse. Every rejection is classified before
/// any payload byte is read, so malformed length fields can never index
/// past the buffer.
enum class ParseError : std::uint8_t {
  kOk = 0,
  kTooShort,        ///< shorter than header + CRC (truncated frame)
  kTooLong,         ///< longer than header + kMaxPayload + CRC
  kBadCrc,          ///< CRC-16 mismatch (corruption)
  kLengthMismatch,  ///< len field disagrees with the buffer size
  kBadType,         ///< type byte is not a known FrameType
};

/// Human-readable name for a ParseError (logs and test failure messages).
const char* parse_error_name(ParseError e);

struct ParseResult {
  std::optional<Frame> frame;       ///< engaged iff error == kOk
  ParseError error = ParseError::kOk;
};

/// Parses with explicit error classification; `frame` is engaged only when
/// every structural check and the CRC pass.
ParseResult parse_checked(const bytes& wire);

/// Parses and CRC-checks; nullopt on malformed/corrupt input.
std::optional<Frame> parse(const bytes& wire);
std::optional<Frame> parse_bits(const bitvec& wire_bits);

/// Maximum payload bytes (len field is one byte).
inline constexpr std::size_t kMaxPayload = 255;
/// Smallest/largest possible wire frames: header + [0, kMaxPayload] + CRC.
inline constexpr std::size_t kMinWireSize = wire_size(0);
inline constexpr std::size_t kMaxWireSize = wire_size(kMaxPayload);

}  // namespace vab::net
