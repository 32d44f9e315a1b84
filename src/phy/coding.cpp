#include "phy/coding.hpp"

#include <array>
#include <cstddef>
#include <stdexcept>

namespace vab::phy {

bitvec bits_from_bytes(const bytes& data) {
  bitvec out;
  out.reserve(data.size() * 8);
  for (auto b : data)
    for (int i = 7; i >= 0; --i) out.push_back((b >> i) & 1u);
  return out;
}

bytes bytes_from_bits(const bitvec& bits) {
  if (bits.size() % 8 != 0) throw std::invalid_argument("bit count not a multiple of 8");
  bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    out[i / 8] = static_cast<std::uint8_t>((out[i / 8] << 1) | (bits[i] & 1u));
  return out;
}

namespace {
// CRC-16/CCITT-FALSE, MSB first: entry b is the register after the bitwise
// loop shifts byte b (XORed into the high byte) through its 8 steps.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    table[b] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();
}  // namespace

std::uint16_t crc16(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : data)
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16Table[(crc >> 8) ^ b]);
  return crc;
}

bytes append_crc(bytes data) {
  const std::uint16_t c = crc16(data);
  data.push_back(static_cast<std::uint8_t>(c >> 8));
  data.push_back(static_cast<std::uint8_t>(c & 0xFF));
  return data;
}

bool check_and_strip_crc(const bytes& data, bytes& out) {
  if (data.size() < 2) return false;
  const std::size_t n = data.size() - 2;
  const auto expect = static_cast<std::uint16_t>((data[n] << 8) | data[n + 1]);
  if (crc16(std::span<const std::uint8_t>(data.data(), n)) != expect) return false;
  if (&out == &data)
    out.resize(n);
  else
    out.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
  return true;
}

namespace {
// Hamming(7,4) with parity bits p1,p2,p3 at positions 1,2,4 (1-indexed):
// codeword [p1 p2 d1 p3 d2 d3 d4].
void encode_nibble(const std::uint8_t d[4], bitvec& out) {
  const std::uint8_t p1 = d[0] ^ d[1] ^ d[3];
  const std::uint8_t p2 = d[0] ^ d[2] ^ d[3];
  const std::uint8_t p3 = d[1] ^ d[2] ^ d[3];
  out.push_back(p1);
  out.push_back(p2);
  out.push_back(d[0]);
  out.push_back(p3);
  out.push_back(d[1]);
  out.push_back(d[2]);
  out.push_back(d[3]);
}
}  // namespace

bitvec hamming74_encode(const bitvec& bits) {
  if (bits.size() % 4 != 0) throw std::invalid_argument("bit count not a multiple of 4");
  bitvec out;
  out.reserve(bits.size() / 4 * 7);
  for (std::size_t i = 0; i < bits.size(); i += 4) {
    const std::uint8_t d[4] = {bits[i], bits[i + 1], bits[i + 2], bits[i + 3]};
    encode_nibble(d, out);
  }
  return out;
}

bitvec hamming74_decode(const bitvec& bits, std::size_t& corrected) {
  if (bits.size() % 7 != 0) throw std::invalid_argument("bit count not a multiple of 7");
  corrected = 0;
  bitvec out;
  out.reserve(bits.size() / 7 * 4);
  for (std::size_t i = 0; i < bits.size(); i += 7) {
    std::uint8_t c[7];
    for (int j = 0; j < 7; ++j) c[j] = bits[i + static_cast<std::size_t>(j)];
    const std::uint8_t s1 = c[0] ^ c[2] ^ c[4] ^ c[6];
    const std::uint8_t s2 = c[1] ^ c[2] ^ c[5] ^ c[6];
    const std::uint8_t s3 = c[3] ^ c[4] ^ c[5] ^ c[6];
    const int syndrome = s1 | (s2 << 1) | (s3 << 2);
    if (syndrome != 0) {
      c[syndrome - 1] ^= 1;
      ++corrected;
    }
    out.push_back(c[2]);
    out.push_back(c[4]);
    out.push_back(c[5]);
    out.push_back(c[6]);
  }
  return out;
}

bitvec interleave(const bitvec& bits, std::size_t rows, std::size_t cols) {
  if (bits.size() != rows * cols)
    throw std::invalid_argument("interleaver size mismatch");
  bitvec out(bits.size());
  std::size_t idx = 0;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) out[idx++] = bits[r * cols + c];
  return out;
}

bitvec deinterleave(const bitvec& bits, std::size_t rows, std::size_t cols) {
  if (bits.size() != rows * cols)
    throw std::invalid_argument("interleaver size mismatch");
  bitvec out(bits.size());
  std::size_t idx = 0;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) out[r * cols + c] = bits[idx++];
  return out;
}

std::size_t hamming_distance(const bitvec& a, const bitvec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("length mismatch");
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

}  // namespace vab::phy
