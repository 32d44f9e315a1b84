// Error paths the sanitizer CI now exercises end to end: Config parsing
// rejections and frame::parse_checked structural bounds. Every rejection
// here must classify cleanly — never read past a buffer, never accept a
// half-parsed value.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "net/frame.hpp"
#include "phy/coding.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using common::Config;

// ---------------------------------------------------------------- Config --

TEST(ConfigNegative, ArgWithoutEqualsThrows) {
  const char* argv[] = {"prog", "trials"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(ConfigNegative, ArgWithEmptyKeyThrows) {
  const char* argv[] = {"prog", "=5"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(ConfigNegative, LineMissingEqualsThrows) {
  EXPECT_THROW(Config::from_string("trials 200\n"), std::invalid_argument);
}

TEST(ConfigNegative, EmptyKeyInStringThrows) {
  EXPECT_THROW(Config::from_string("= 5\n"), std::invalid_argument);
}

TEST(ConfigNegative, CommentsAndBlankLinesAreSkipped) {
  const Config cfg = Config::from_string("# header\n\n  trials = 7 # inline\n");
  EXPECT_EQ(cfg.get_count("trials", 0), 7u);
}

TEST(ConfigNegative, DuplicateKeysLastWins) {
  // Documented override semantics: `prog base.cfg threads=1 threads=8`
  // must resolve to the rightmost value, not raise.
  const char* argv[] = {"prog", "threads=1", "threads=8"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_count("threads", 0), 8u);
  const Config cfg2 = Config::from_string("seed=1\nseed=42\n");
  EXPECT_EQ(cfg2.get_count("seed", 0), 42u);
}

TEST(ConfigNegative, NonNumericDoubleThrows) {
  Config cfg;
  // stod reads "nan", "inf" and leading whitespace; none is a usable
  // setting, so each must throw.
  for (const char* bad : {"fast", "nan", "inf", "-inf", "infinity", " 1.5", ""}) {
    cfg.set("x", bad);
    EXPECT_THROW(cfg.get_double("x", 0.0), std::invalid_argument) << "'" << bad << "'";
  }
}

TEST(ConfigNegative, TrailingGarbageDoubleThrows) {
  // stod would happily parse "100m" as 100; a typo'd unit suffix must be
  // an error, not a silently plausible number.
  Config cfg;
  cfg.set("range_m", "100m");
  EXPECT_THROW(cfg.get_double("range_m", 0.0), std::invalid_argument);
}

TEST(ConfigNegative, TrailingGarbageIntThrows) {
  Config cfg;
  cfg.set("trials", "200x");
  EXPECT_THROW(cfg.get_count("trials", 0), std::invalid_argument);
  cfg.set("trials", "1e3");  // scientific notation is not an integer
  EXPECT_THROW(cfg.get_count("trials", 0), std::invalid_argument);
  // A count is digits only: a signed getter read "-1" as 2^64 - 1 trials
  // once cast to std::size_t.
  for (const char* bad : {"-1", "+5", " 5", "5 ", "", "0x10", "nan", "inf"}) {
    cfg.set("trials", bad);
    EXPECT_THROW(cfg.get_count("trials", 0), std::invalid_argument) << "'" << bad << "'";
  }
  try {
    cfg.get_count("trials", 0);
    ADD_FAILURE() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'trials'"), std::string::npos) << e.what();
  }
}

TEST(ConfigNegative, WellFormedNumericsStillParse) {
  Config cfg;
  cfg.set("a", "-1.5e-3");
  cfg.set("b", "18446744073709551615");
  EXPECT_DOUBLE_EQ(cfg.get_double("a", 0.0), -1.5e-3);
  EXPECT_EQ(cfg.get_count("b", 0), std::numeric_limits<std::size_t>::max());
}

TEST(ConfigNegative, IntOverflowThrows) {
  Config cfg;
  cfg.set("big", "999999999999999999999999999");
  EXPECT_THROW(cfg.get_count("big", 0), std::invalid_argument);
  cfg.set("big", "18446744073709551616");  // SIZE_MAX + 1
  EXPECT_THROW(cfg.get_count("big", 0), std::invalid_argument);
}

TEST(ConfigNegative, BadBoolThrows) {
  Config cfg;
  cfg.set("flag", "maybe");
  EXPECT_THROW(cfg.get_bool("flag", false), std::invalid_argument);
}

TEST(ConfigNegative, FallbacksUntouchedByMissingKeys) {
  const Config cfg;
  EXPECT_EQ(cfg.get_string("k", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double("k", 2.5), 2.5);
  EXPECT_EQ(cfg.get_count("k", 3), 3u);
  EXPECT_TRUE(cfg.get_bool("k", true));
}

// ---------------------------------------------- frame::parse_checked bounds --

/// `body` followed by its big-endian CRC-16, the layout net::serialize
/// writes: lets a test tamper with a header and keep the CRC valid.
bytes with_crc(bytes body) {
  const std::uint16_t c = phy::crc16(body);
  body.push_back(static_cast<std::uint8_t>(c >> 8));
  body.push_back(static_cast<std::uint8_t>(c & 0xFF));
  return body;
}

net::Frame sample_frame(std::size_t payload_len) {
  net::Frame f;
  f.addr = 0x21;
  f.type = net::FrameType::kSensorReport;
  f.seq = 9;
  f.payload.assign(payload_len, 0xA5);
  return f;
}

TEST(ParseCheckedBounds, EmptyAndSubMinimalBuffersAreTooShort) {
  for (std::size_t n = 0; n < net::kMinWireSize; ++n) {
    const auto r = net::parse_checked(bytes(n, 0x00));
    EXPECT_EQ(r.error, net::ParseError::kTooShort) << "size " << n;
    EXPECT_FALSE(r.frame.has_value());
  }
}

TEST(ParseCheckedBounds, MinimalValidFrameParses) {
  const auto wire = net::serialize(sample_frame(0));
  ASSERT_EQ(wire.size(), net::kMinWireSize);
  const auto r = net::parse_checked(wire);
  EXPECT_EQ(r.error, net::ParseError::kOk);
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_TRUE(r.frame->payload.empty());
}

TEST(ParseCheckedBounds, MaximalValidFrameParses) {
  const auto wire = net::serialize(sample_frame(net::kMaxPayload));
  ASSERT_EQ(wire.size(), net::kMaxWireSize);
  const auto r = net::parse_checked(wire);
  EXPECT_EQ(r.error, net::ParseError::kOk);
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(r.frame->payload.size(), net::kMaxPayload);
}

TEST(ParseCheckedBounds, OversizedBufferIsTooLong) {
  const auto r = net::parse_checked(bytes(net::kMaxWireSize + 1, 0x55));
  EXPECT_EQ(r.error, net::ParseError::kTooLong);
}

TEST(ParseCheckedBounds, CorruptCrcClassified) {
  auto wire = net::serialize(sample_frame(4));
  wire.back() ^= 0x01;
  EXPECT_EQ(net::parse_checked(wire).error, net::ParseError::kBadCrc);
}

TEST(ParseCheckedBounds, LyingLengthFieldClassified) {
  // Re-CRC after tampering so the length check, not the CRC, must reject:
  // a len that over- or under-claims can never drive an out-of-bounds read.
  for (const int delta : {-1, +1, +100}) {
    auto wire = net::serialize(sample_frame(8));
    wire.resize(wire.size() - 2);  // strip CRC
    const int lied = static_cast<int>(wire[3]) + delta;
    if (lied < 0 || lied > static_cast<int>(net::kMaxPayload)) continue;
    wire[3] = static_cast<std::uint8_t>(lied);
    const auto r = net::parse_checked(with_crc(wire));
    EXPECT_EQ(r.error, net::ParseError::kLengthMismatch) << "delta " << delta;
    EXPECT_FALSE(r.frame.has_value());
  }
}

TEST(ParseCheckedBounds, UnknownTypeClassified) {
  auto wire = net::serialize(sample_frame(2));
  wire.resize(wire.size() - 2);
  wire[1] = 0x7E;  // not a FrameType
  EXPECT_EQ(net::parse_checked(with_crc(wire)).error,
            net::ParseError::kBadType);
}

TEST(ParseCheckedBounds, SerializeRejectsOversizedPayload) {
  // The payload itself refuses a 256th byte, so serialize never sees one.
  EXPECT_THROW(sample_frame(net::kMaxPayload + 1), std::invalid_argument);
}

TEST(ParseCheckedBounds, ParseBitsRejectsRaggedBitCount) {
  const auto bits = net::serialize_bits(sample_frame(1));
  bitvec ragged(bits.begin(), bits.end() - 3);
  EXPECT_FALSE(net::parse_bits(ragged).has_value());
}

TEST(ParseCheckedBounds, EveryErrorHasAName) {
  using net::ParseError;
  for (const auto e : {ParseError::kOk, ParseError::kTooShort,
                       ParseError::kTooLong, ParseError::kBadCrc,
                       ParseError::kLengthMismatch, ParseError::kBadType}) {
    EXPECT_STRNE(net::parse_error_name(e), "unknown");
  }
}

// ------------------------------------------------------------ LinkBudget --

// The constructor evaluates the absorption and in-band noise terms, so a
// scenario without a positive carrier or chip rate is rejected when the
// budget is built, before any evaluate().
TEST(LinkBudgetNegative, NonPositiveCarrierThrowsAtConstruction) {
  for (const double carrier : {0.0, -18500.0}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.phy.carrier_hz = carrier;
    EXPECT_THROW(sim::LinkBudget{s}, std::invalid_argument) << carrier;
  }
}

TEST(LinkBudgetNegative, NonPositiveChipRateThrowsAtConstruction) {
  for (const double bitrate : {0.0, -500.0}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.phy.bitrate_bps = bitrate;
    EXPECT_THROW(sim::LinkBudget{s}, std::invalid_argument) << bitrate;
  }
}

}  // namespace
}  // namespace vab
