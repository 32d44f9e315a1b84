// Bit/byte utilities, CRC-16, Hamming(7,4) FEC and block interleaving.
//
// VAB frames carry a CRC-16 for error detection; the optional Hamming(7,4)
// code with interleaving recovers isolated chip errors near the range limit
// (the "same throughput" comparisons run uncoded, matching the paper).
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace vab::phy {

/// Unpacks bytes MSB-first into bits (0/1 per element).
bitvec bits_from_bytes(const bytes& data);

/// Packs bits MSB-first into bytes; `bits.size()` must be a multiple of 8.
bytes bytes_from_bits(const bitvec& bits);

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over bytes.
std::uint16_t crc16(std::span<const std::uint8_t> data);

/// Appends the CRC (big-endian) to `data`; pass an rvalue to skip the copy.
bytes append_crc(bytes data);

/// Verifies and strips a trailing CRC; returns false on mismatch or short
/// input (out left untouched). The CRC is checked in place; `out` is only
/// written on success.
bool check_and_strip_crc(const bytes& data, bytes& out);

/// Hamming(7,4): encodes each 4-bit nibble into 7 bits (SEC).
bitvec hamming74_encode(const bitvec& bits);

/// Decodes, correcting single-bit errors per 7-bit block. `bits.size()` must
/// be a multiple of 7. Returns the corrected data bits; `corrected` reports
/// how many blocks had a correction applied.
bitvec hamming74_decode(const bitvec& bits, std::size_t& corrected);

/// Block interleaver: writes row-wise into a `rows x cols` matrix and reads
/// column-wise. `bits.size()` must equal rows*cols.
bitvec interleave(const bitvec& bits, std::size_t rows, std::size_t cols);
bitvec deinterleave(const bitvec& bits, std::size_t rows, std::size_t cols);

/// Hamming distance between equal-length bit vectors.
std::size_t hamming_distance(const bitvec& a, const bitvec& b);

}  // namespace vab::phy
