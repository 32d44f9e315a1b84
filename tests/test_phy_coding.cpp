// CRC, Hamming FEC, interleaving, bit packing, BER formulas.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "phy/ber.hpp"
#include "phy/coding.hpp"
#include "support/phy.hpp"

namespace vab::phy {
namespace {

TEST(Bits, PackUnpackRoundTrip) {
  const bytes data{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF};
  EXPECT_EQ(bytes_from_bits(bits_from_bytes(data)), data);
  EXPECT_THROW(bytes_from_bits(bitvec(7, 1)), std::invalid_argument);
}

TEST(Bits, MsbFirstOrder) {
  const bitvec bits = bits_from_bytes({0x80});
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[static_cast<std::size_t>(i)], 0);
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const bytes msg{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(msg), 0x29B1);
}

// Frames append and check the CRC in place (net::serialize /
// net::parse_checked); the CRC is checked before any other header field, so
// any corruption it catches reads kBadCrc.
TEST(Crc16, DetectsCorruption) {
  common::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    net::Frame f;
    f.type = net::FrameType::kSensorReport;
    f.payload.resize(16);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    bytes wire = net::serialize(f);
    const auto clean = net::parse_checked(wire);
    ASSERT_EQ(clean.error, net::ParseError::kOk);
    EXPECT_EQ(clean.frame->payload, f.payload);
    // Flip one random bit anywhere in the frame.
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long>(wire.size()) - 1));
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    EXPECT_EQ(net::parse_checked(wire).error, net::ParseError::kBadCrc)
        << "trial " << trial;
  }
}

TEST(Crc16, ShortInputRejected) {
  EXPECT_EQ(net::parse_checked({0x01}).error, net::ParseError::kTooShort);
  EXPECT_EQ(net::parse_checked({}).error, net::ParseError::kTooShort);
}

// The bitwise CRC-16/CCITT-FALSE loop the table is generated from.
std::uint16_t bitwise_crc16(const bytes& data) {
  std::uint16_t crc = 0xFFFF;
  for (auto b : data) {
    crc = static_cast<std::uint16_t>(crc ^ (static_cast<unsigned>(b) << 8));
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

TEST(Crc16, TableMatchesBitwiseReference) {
  common::Rng rng(19);
  for (std::size_t n = 0; n <= 300; ++n) {
    bytes msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(crc16(msg), bitwise_crc16(msg)) << "length " << n;
  }
}

TEST(Hamming, RoundTripClean) {
  common::Rng rng(2);
  const bitvec data = rng.random_bits(64);
  std::size_t corrected = 0;
  EXPECT_EQ(hamming74_decode(hamming74_encode(data), corrected), data);
  EXPECT_EQ(corrected, 0u);
}

TEST(Hamming, CorrectsAnySingleBitErrorPerBlock) {
  common::Rng rng(3);
  const bitvec data = rng.random_bits(4);
  const bitvec code = hamming74_encode(data);
  for (std::size_t flip = 0; flip < 7; ++flip) {
    bitvec corrupted = code;
    corrupted[flip] ^= 1;
    std::size_t corrected = 0;
    EXPECT_EQ(hamming74_decode(corrupted, corrected), data) << "flip " << flip;
    EXPECT_EQ(corrected, 1u);
  }
}

TEST(Hamming, DoubleErrorNotCorrectable) {
  const bitvec data{1, 0, 1, 1};
  bitvec code = hamming74_encode(data);
  code[0] ^= 1;
  code[3] ^= 1;
  std::size_t corrected = 0;
  EXPECT_NE(hamming74_decode(code, corrected), data);
}

TEST(Hamming, RateIs47) {
  EXPECT_EQ(hamming74_encode(bitvec(40, 0)).size(), 70u);
  EXPECT_THROW(hamming74_encode(bitvec(3, 0)), std::invalid_argument);
}

TEST(Interleave, RoundTrip) {
  common::Rng rng(4);
  const bitvec data = rng.random_bits(48);
  EXPECT_EQ(deinterleave(interleave(data, 6, 8), 6, 8), data);
  EXPECT_THROW(interleave(data, 5, 8), std::invalid_argument);
}

TEST(Interleave, SpreadsBurst) {
  // A burst of 4 consecutive errors lands in 4 different rows after
  // deinterleaving, so Hamming(7,4) can fix all of them.
  bitvec data(7 * 4, 0);
  bitvec inter = interleave(data, 4, 7);
  for (std::size_t i = 8; i < 12; ++i) inter[i] ^= 1;  // burst
  const bitvec deinter = deinterleave(inter, 4, 7);
  // Count errors per 7-bit block.
  for (std::size_t block = 0; block < 4; ++block) {
    std::size_t errs = 0;
    for (std::size_t i = 0; i < 7; ++i) errs += deinter[block * 7 + i];
    EXPECT_LE(errs, 1u) << "block " << block;
  }
}

TEST(Ber, QFunctionReference) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.1587, 1e-4);
  EXPECT_NEAR(q_function(3.09), 1e-3, 1e-4);
}

TEST(Ber, ModulationOrdering) {
  // At the same Eb/N0, antipodal < coherent OOK < noncoherent OOK.
  for (double ebn0_db : {4.0, 8.0, 12.0}) {
    const double g = std::pow(10.0, ebn0_db / 10.0);
    EXPECT_LT(ber_bpsk(g), ber_ook_coherent(g));
    EXPECT_LT(ber_ook_coherent(g), ber_ook_noncoherent(g) + 1e-12);
  }
}

TEST(Ber, Fm0RequiresAbout5dBForMinus3) {
  // Q(sqrt(2 g)) = 1e-3 at g ~ 4.77 (6.8 dB).
  const double g = std::pow(10.0, 6.8 / 10.0);
  EXPECT_NEAR(ber_fm0(g), 1e-3, 3e-4);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 1, 1}), 1u);
  EXPECT_THROW(hamming_distance({1}, {1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace vab::phy
