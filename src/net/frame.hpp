// VAB link-layer frame format.
//
// Uplink frames ride on the FM0 backscatter PHY; downlink commands ride on
// PIE. Both use the same byte layout:
//   [addr:1][type:1][seq:1][len:1][payload:len][crc16:2]
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <stdexcept>

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

/// Maximum payload bytes (len field is one byte).
inline constexpr std::size_t kMaxPayload = 255;
/// Smallest/largest possible wire frames: header + [0, kMaxPayload] + CRC.
inline constexpr std::size_t kMinWireSize = wire_size(0);
inline constexpr std::size_t kMaxWireSize = wire_size(kMaxPayload);

/// Frame payload: at most kMaxPayload bytes stored inline, so a Frame copies
/// and moves without touching the heap. Growing it past kMaxPayload throws
/// std::invalid_argument: no such frame has a wire form. Bytes past size()
/// are never initialized, read or copied, so a Frame costs its payload
/// length, not its capacity, to build and to copy.
class Payload {
 public:
  Payload() {}  // user-provided, so even Payload{} leaves buf_ unset
  Payload(std::initializer_list<std::uint8_t> init) { assign(init.begin(), init.end()); }
  /// Implicit, so `frame.payload = some_bytes` reads like a vector assign.
  Payload(const bytes& b) { assign(b.begin(), b.end()); }
  Payload(const Payload& o) : size_(o.size_) { std::copy(o.begin(), o.end(), begin()); }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      size_ = o.size_;
      std::copy(o.begin(), o.end(), begin());
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t* begin() { return buf_.data(); }
  std::uint8_t* end() { return buf_.data() + size_; }
  const std::uint8_t* begin() const { return buf_.data(); }
  const std::uint8_t* end() const { return buf_.data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return buf_[i]; }
  std::uint8_t operator[](std::size_t i) const { return buf_[i]; }

  /// Like std::vector::resize: new bytes are zero.
  void resize(std::size_t n) {
    if (checked_size(n) > size_) std::fill(end(), begin() + n, std::uint8_t{0});
    size_ = static_cast<std::uint8_t>(n);
  }
  void assign(std::size_t n, std::uint8_t value) {
    size_ = static_cast<std::uint8_t>(checked_size(n));
    std::fill(begin(), end(), value);
  }
  template <std::input_iterator It>
  void assign(It first, It last) {
    size_ = static_cast<std::uint8_t>(
        checked_size(static_cast<std::size_t>(std::distance(first, last))));
    std::copy(first, last, begin());
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static std::size_t checked_size(std::size_t n) {
    if (n > kMaxPayload) throw std::invalid_argument("payload too large");
    return n;
  }

  std::uint8_t size_ = 0;
  std::array<std::uint8_t, kMaxPayload> buf_;
};

struct Frame {
  std::uint8_t addr = 0;     ///< destination (downlink) or source (uplink)
  FrameType type = FrameType::kQuery;
  std::uint8_t seq = 0;
  Payload payload;

  /// Serialized size in bytes including CRC.
  std::size_t wire_size() const { return net::wire_size(payload.size()); }
};

/// Serializes into `wire`, resized to f.wire_size(), with the CRC appended
/// in place. A buffer that already held a frame this long keeps its
/// capacity, so reusing one makes this allocation-free.
void serialize(const Frame& f, bytes& wire);

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
/// every structural check and the CRC pass. All checks read the wire bytes
/// in place; the payload is copied once, into `frame`, on success.
ParseResult parse_checked(const bytes& wire);

/// Parses and CRC-checks; nullopt on malformed/corrupt input.
std::optional<Frame> parse(const bytes& wire);
std::optional<Frame> parse_bits(const bitvec& wire_bits);

}  // namespace vab::net
