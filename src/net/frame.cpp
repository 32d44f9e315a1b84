#include "net/frame.hpp"

#include <algorithm>
#include <span>

#include "phy/coding.hpp"

namespace vab::net {

void serialize(const Frame& f, bytes& wire) {
  const std::size_t n = f.wire_size() - 2;
  wire.resize(n + 2);
  wire[0] = f.addr;
  wire[1] = static_cast<std::uint8_t>(f.type);
  wire[2] = f.seq;
  wire[3] = static_cast<std::uint8_t>(f.payload.size());
  std::copy(f.payload.begin(), f.payload.end(), wire.begin() + 4);
  const std::uint16_t crc = phy::crc16(std::span<const std::uint8_t>(wire.data(), n));
  wire[n] = static_cast<std::uint8_t>(crc >> 8);
  wire[n + 1] = static_cast<std::uint8_t>(crc & 0xFF);
}

bytes serialize(const Frame& f) {
  bytes out;
  serialize(f, out);
  return out;
}

bitvec serialize_bits(const Frame& f) { return phy::bits_from_bytes(serialize(f)); }

const char* parse_error_name(ParseError e) {
  switch (e) {
    case ParseError::kOk: return "ok";
    case ParseError::kTooShort: return "too_short";
    case ParseError::kTooLong: return "too_long";
    case ParseError::kBadCrc: return "bad_crc";
    case ParseError::kLengthMismatch: return "length_mismatch";
    case ParseError::kBadType: return "bad_type";
  }
  return "unknown";
}

namespace {
bool known_frame_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kQuery:
    case FrameType::kSensorReport:
    case FrameType::kAck:
      return true;
  }
  return false;
}
}  // namespace

ParseResult parse_checked(const bytes& wire) {
  // Structural bounds first: no byte of a mis-sized buffer is interpreted.
  if (wire.size() < kMinWireSize) return {std::nullopt, ParseError::kTooShort};
  if (wire.size() > kMaxWireSize) return {std::nullopt, ParseError::kTooLong};
  const std::size_t n = wire.size() - 2;  // header + payload, CRC excluded
  const auto crc = static_cast<std::uint16_t>((wire[n] << 8) | wire[n + 1]);
  if (phy::crc16(std::span<const std::uint8_t>(wire.data(), n)) != crc)
    return {std::nullopt, ParseError::kBadCrc};
  // The len field must account for exactly the bytes present — a lying
  // length can therefore never drive a read past the buffer.
  const std::size_t len = wire[3];
  if (n != 4 + len) return {std::nullopt, ParseError::kLengthMismatch};
  if (!known_frame_type(wire[1])) return {std::nullopt, ParseError::kBadType};
  ParseResult res;
  Frame& f = res.frame.emplace();
  f.addr = wire[0];
  f.type = static_cast<FrameType>(wire[1]);
  f.seq = wire[2];
  f.payload.assign(wire.begin() + 4, wire.begin() + static_cast<std::ptrdiff_t>(n));
  return res;
}

std::optional<Frame> parse(const bytes& wire) { return parse_checked(wire).frame; }

std::optional<Frame> parse_bits(const bitvec& wire_bits) {
  if (wire_bits.size() % 8 != 0) return std::nullopt;
  return parse(phy::bytes_from_bits(wire_bits));
}

}  // namespace vab::net
