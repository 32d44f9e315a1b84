// Miller subcarrier coding and frame FEC.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "phy/fec.hpp"
#include "phy/fm0.hpp"
#include "phy/miller.hpp"
#include "support/phy.hpp"

namespace vab::phy {
namespace {

class MillerM : public ::testing::TestWithParam<unsigned> {};

TEST_P(MillerM, EncodeDecodeRoundTrip) {
  const unsigned m = GetParam();
  common::Rng rng(m);
  for (int trial = 0; trial < 10; ++trial) {
    const bitvec bits = rng.random_bits(48);
    EXPECT_EQ(miller_decode(miller_encode(bits, m), m), bits) << "M=" << m;
  }
}

TEST_P(MillerM, ChipCount) {
  const unsigned m = GetParam();
  EXPECT_EQ(miller_encode(bitvec(10, 1), m).size(), 10u * 2u * m);
}

TEST_P(MillerM, SoftDecodeSignInvariant) {
  const unsigned m = GetParam();
  common::Rng rng(m + 100);
  const bitvec bits = rng.random_bits(32);
  const bitvec chips = miller_encode(bits, m);
  rvec soft(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) soft[i] = chips[i] ? -0.3 : 0.3;
  EXPECT_EQ(miller_decode_soft(soft, m), bits);
}

INSTANTIATE_TEST_SUITE_P(SubcarrierFactors, MillerM, ::testing::Values(2u, 4u, 8u));

TEST(Miller, RejectsBadM) {
  EXPECT_THROW(miller_encode({1, 0}, 3), std::invalid_argument);
  EXPECT_THROW(miller_decode(bitvec(6, 0), 2), std::invalid_argument);
}

TEST(Miller, SpectrumConcentratedAtSubcarrier) {
  // The point of Miller: data energy sits near M x bitrate, away from the
  // carrier residue at DC. Compare low-frequency energy fraction vs FM0.
  common::Rng rng(7);
  const bitvec bits = rng.random_bits(512);
  const unsigned m = 4;

  auto spectrum_low_fraction = [](const rvec& levels, double chips_per_bit) {
    cvec x(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) x[i] = cplx{levels[i], 0.0};
    cvec spec = dsp::fft(x);
    const std::size_t n = spec.size();
    // "Low" = below 1/4 of the bit-rate-normalized band.
    const auto low_edge = static_cast<std::size_t>(
        static_cast<double>(n) / chips_per_bit / 4.0);
    double low = 0.0, total = 0.0;
    for (std::size_t k = 1; k < n / 2; ++k) {
      const double p = std::norm(spec[k]);
      total += p;
      if (k < low_edge) low += p;
    }
    return low / total;
  };

  const bitvec fm0 = fm0_encode(bits);
  rvec fm0_lv(fm0.size());
  for (std::size_t i = 0; i < fm0.size(); ++i) fm0_lv[i] = fm0[i] ? 1.0 : -1.0;
  const bitvec mil = miller_encode(bits, m);
  rvec mil_lv(mil.size());
  for (std::size_t i = 0; i < mil.size(); ++i) mil_lv[i] = mil[i] ? 1.0 : -1.0;

  EXPECT_LT(spectrum_low_fraction(mil_lv, 2.0 * m),
            spectrum_low_fraction(fm0_lv, 2.0));
}

TEST(Fec, RoundTripClean) {
  common::Rng rng(1);
  FrameCodec codec;
  const bitvec data = rng.random_bits(50);  // non-multiple of 4: exercises padding
  const bitvec coded = codec.encode(data);
  EXPECT_EQ(coded.size(), codec.coded_size(data.size()));
  std::size_t corrected = 0;
  EXPECT_EQ(codec.decode(coded, data.size(), corrected), data);
  EXPECT_EQ(corrected, 0u);
}

TEST(Fec, CorrectsScatteredErrors) {
  common::Rng rng(2);
  FrameCodec codec;
  const bitvec data = rng.random_bits(64);
  bitvec coded = codec.encode(data);
  const std::size_t blocks = coded.size() / 7;
  // One error per Hamming block: in the interleaved (column-wise) layout,
  // block r's column-c bit sits at index c*blocks + r.
  for (std::size_t r = 0; r < blocks; r += 2) coded[(r % 7) * blocks + r] ^= 1;
  std::size_t corrected = 0;
  EXPECT_EQ(codec.decode(coded, data.size(), corrected), data);
  EXPECT_GT(corrected, 0u);
}

TEST(Fec, CorrectsBurstViaInterleaving) {
  common::Rng rng(3);
  FrameCodec codec;
  const bitvec data = rng.random_bits(64);
  bitvec coded = codec.encode(data);
  // A contiguous burst as long as the block count: deinterleaving spreads it
  // one bit per Hamming block.
  const std::size_t blocks = coded.size() / 7;
  for (std::size_t i = 10; i < 10 + blocks; ++i) coded[i] ^= 1;
  std::size_t corrected = 0;
  EXPECT_EQ(codec.decode(coded, data.size(), corrected), data);
  EXPECT_EQ(corrected, blocks);
}

TEST(Fec, DisabledPassesThrough) {
  FrameCodec codec(FecConfig{false});
  const bitvec data{1, 0, 1};
  EXPECT_EQ(codec.encode(data), data);
  std::size_t corrected = 9;
  EXPECT_EQ(codec.decode(data, 3, corrected), data);
  EXPECT_EQ(corrected, 0u);
}

TEST(Fec, SizeMismatchThrows) {
  FrameCodec codec;
  std::size_t corrected;
  EXPECT_THROW(codec.decode(bitvec(10, 0), 64, corrected), std::invalid_argument);
}

}  // namespace
}  // namespace vab::phy
