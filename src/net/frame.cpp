#include "net/frame.hpp"

#include <stdexcept>
#include <utility>

#include "phy/coding.hpp"

namespace vab::net {

bytes serialize(const Frame& f) {
  if (f.payload.size() > kMaxPayload) throw std::invalid_argument("payload too large");
  bytes out;
  out.reserve(f.wire_size());
  out.push_back(f.addr);
  out.push_back(static_cast<std::uint8_t>(f.type));
  out.push_back(f.seq);
  out.push_back(static_cast<std::uint8_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return phy::append_crc(std::move(out));
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
  bytes body;
  if (!phy::check_and_strip_crc(wire, body)) return {std::nullopt, ParseError::kBadCrc};
  // The len field must account for exactly the bytes present — a lying
  // length can therefore never drive a read past the buffer.
  const std::size_t len = body[3];
  if (body.size() != 4 + len) return {std::nullopt, ParseError::kLengthMismatch};
  if (!known_frame_type(body[1])) return {std::nullopt, ParseError::kBadType};
  Frame f;
  f.addr = body[0];
  f.type = static_cast<FrameType>(body[1]);
  f.seq = body[2];
  f.payload.assign(body.begin() + 4, body.end());
  return {f, ParseError::kOk};
}

std::optional<Frame> parse(const bytes& wire) { return parse_checked(wire).frame; }

std::optional<Frame> parse_bits(const bitvec& wire_bits) {
  if (wire_bits.size() % 8 != 0) return std::nullopt;
  return parse(phy::bytes_from_bits(wire_bits));
}

}  // namespace vab::net
