// Frames, sensor payloads and MAC state machines.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/mac.hpp"
#include "phy/coding.hpp"

namespace vab::net {
namespace {

TEST(Frame, SerializeParseRoundTrip) {
  Frame f;
  f.addr = 7;
  f.type = FrameType::kSensorReport;
  f.seq = 42;
  f.payload = {1, 2, 3, 4, 5, 6};
  const auto parsed = parse(serialize(f));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->addr, 7);
  EXPECT_EQ(parsed->type, FrameType::kSensorReport);
  EXPECT_EQ(parsed->seq, 42);
  EXPECT_EQ(parsed->payload, f.payload);
}

TEST(Frame, BitsRoundTrip) {
  Frame f;
  f.addr = 3;
  f.type = FrameType::kQuery;
  const auto parsed = parse_bits(serialize_bits(f));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->addr, 3);
}

TEST(Frame, CorruptionRejected) {
  common::Rng rng(1);
  Frame f;
  f.addr = 9;
  f.type = FrameType::kSensorReport;
  f.payload = {10, 20, 30};
  for (int trial = 0; trial < 30; ++trial) {
    bytes wire = serialize(f);
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long>(wire.size()) - 1));
    wire[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    EXPECT_FALSE(parse(wire).has_value());
  }
}

TEST(Frame, MalformedLengthRejected) {
  Frame f;
  f.payload = {1, 2, 3};
  bytes wire = serialize(f);
  wire[3] = 200;  // lie about the length; CRC still matches original bytes?
  // CRC covers the length byte, so this must fail.
  EXPECT_FALSE(parse(wire).has_value());
  EXPECT_FALSE(parse(bytes{}).has_value());
}

TEST(Frame, WireSizeAndLimits) {
  Frame f;
  f.payload.assign(255, 0xAA);
  EXPECT_EQ(serialize(f).size(), f.wire_size());
  EXPECT_EQ(serialize(f).size(), kMaxWireSize);
  EXPECT_EQ(wire_size(kReadingBytes), 12u);  // the sensor report on the air
  // The len field is one byte: a longer payload is rejected when it is set,
  // so no Frame can hold a payload without a wire form.
  EXPECT_THROW(f.payload.assign(256, 0xAA), std::invalid_argument);
  EXPECT_THROW(f.payload.resize(256), std::invalid_argument);
  EXPECT_THROW(f.payload = bytes(256, 0xAA), std::invalid_argument);
  EXPECT_EQ(f.payload.size(), kMaxPayload);  // unchanged by the rejections
}

TEST(Frame, ParseCheckedClassifiesErrors) {
  Frame f;
  f.addr = 4;
  f.type = FrameType::kSensorReport;
  f.payload = {1, 2, 3};
  const bytes wire = serialize(f);

  EXPECT_EQ(parse_checked(wire).error, ParseError::kOk);
  EXPECT_EQ(parse_checked(bytes{}).error, ParseError::kTooShort);
  EXPECT_EQ(parse_checked(bytes(kMinWireSize - 1, 0)).error, ParseError::kTooShort);
  EXPECT_EQ(parse_checked(bytes(kMaxWireSize + 1, 0)).error, ParseError::kTooLong);

  bytes corrupt = wire;
  corrupt.back() ^= 0x01;
  EXPECT_EQ(parse_checked(corrupt).error, ParseError::kBadCrc);

  // A lying length field with a *recomputed* CRC must still be rejected —
  // this is the case plain CRC checking does not cover.
  bytes lying(wire.begin(), wire.end() - 2);
  lying[3] = 200;
  lying = phy::append_crc(lying);
  EXPECT_EQ(parse_checked(lying).error, ParseError::kLengthMismatch);

  // Unknown type bytes, CRC valid; 0x02 and 0x30 are retired type values.
  for (const std::uint8_t type :
       {std::uint8_t{0x7F}, std::uint8_t{0x02}, std::uint8_t{0x30}}) {
    bytes bad_type(wire.begin(), wire.end() - 2);
    bad_type[1] = type;
    bad_type = phy::append_crc(bad_type);
    EXPECT_EQ(parse_checked(bad_type).error, ParseError::kBadType) << int{type};
  }
}

TEST(Frame, FuzzMutationsNeverYieldInvalidFrames) {
  // Random truncations, extensions and byte mutations of valid frames: the
  // parser must never accept a frame that does not re-serialize to exactly
  // the bytes it was handed (and must never read past the buffer — ASan/
  // valgrind would catch that here).
  common::Rng rng(0xF022);
  for (int trial = 0; trial < 500; ++trial) {
    Frame f;
    f.addr = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    f.type = FrameType::kSensorReport;
    f.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 32));
    f.payload.resize(n);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    bytes wire = serialize(f);

    switch (rng.uniform_int(0, 2)) {
      case 0:  // truncate anywhere, including to zero
        wire.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long>(wire.size()))));
        break;
      case 1:  // extend with garbage
        for (long k = rng.uniform_int(1, 300); k > 0; --k)
          wire.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        break;
      default:  // mutate 1-4 random bytes
        for (long k = rng.uniform_int(1, 4); k > 0 && !wire.empty(); --k) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<long>(wire.size()) - 1));
          wire[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
    }

    const ParseResult res = parse_checked(wire);
    if (res.frame.has_value()) {
      EXPECT_EQ(res.error, ParseError::kOk) << parse_error_name(res.error);
      EXPECT_EQ(serialize(*res.frame), wire) << "accepted frame must round-trip";
    } else {
      EXPECT_NE(res.error, ParseError::kOk);
    }
  }
}

TEST(App, ReadingRoundTripWithinResolution) {
  SensorReading r;
  r.temperature_c = 17.384;
  r.pressure_kpa = 204.37;
  r.battery_mv = 2750;
  const auto back = decode_reading(encode_reading(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(back->temperature_c, r.temperature_c, kTempResolutionC);
  EXPECT_NEAR(back->pressure_kpa, r.pressure_kpa, kPressureResolutionKpa);
  EXPECT_EQ(back->battery_mv, r.battery_mv);
}

TEST(App, ExtremesClampNotWrap) {
  SensorReading r;
  r.temperature_c = 500.0;
  r.pressure_kpa = -10.0;
  const auto back = decode_reading(encode_reading(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_GT(back->temperature_c, 80.0);
  EXPECT_EQ(back->pressure_kpa, 0.0);
  EXPECT_FALSE(decode_reading(bytes(5)).has_value());
}

TEST(Mac, QueryAddressedToUsProducesReport) {
  NodeMac node(5, MacTiming{});
  ReaderMac reader{MacTiming{}};
  const Frame q = reader.make_query(5);
  const auto resp = node.on_downlink(q, SensorReading{12.0, 101.0, 3000});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->frame.addr, 5);
  EXPECT_EQ(resp->frame.type, FrameType::kSensorReport);
  const auto reading = decode_reading(resp->frame.payload);
  ASSERT_TRUE(reading.has_value());
  EXPECT_NEAR(reading->temperature_c, 12.0, kTempResolutionC);
}

TEST(Mac, QueryForOtherNodeIgnored) {
  NodeMac node(5, MacTiming{});
  ReaderMac reader{MacTiming{}};
  EXPECT_FALSE(node.on_downlink(reader.make_query(6), SensorReading{}).has_value());
}

TEST(Mac, BroadcastQueryAnswered) {
  NodeMac node(5, MacTiming{});
  ReaderMac reader{MacTiming{}};
  EXPECT_TRUE(node.on_downlink(reader.make_query(kBroadcastAddr), SensorReading{})
                  .has_value());
}

TEST(Mac, SequenceAdvancesOnlyOnAck) {
  // Stop-and-wait: an un-ACKed report is retransmitted with the same seq
  // (the reader dedupes on it); the ACK advances the window.
  NodeMac node(1, MacTiming{});
  ReaderMac reader{MacTiming{}};
  const auto r1 = node.on_downlink(reader.make_query(1), SensorReading{});
  const auto r2 = node.on_downlink(reader.make_query(1), SensorReading{});
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->frame.seq, r2->frame.seq);
  EXPECT_TRUE(node.awaiting_ack());
  node.on_downlink(reader.make_ack(1, r2->frame.seq), SensorReading{});
  EXPECT_FALSE(node.awaiting_ack());
  const auto r3 = node.on_downlink(reader.make_query(1), SensorReading{});
  ASSERT_TRUE(r3);
  EXPECT_EQ((r2->frame.seq + 1) & 0xFF, r3->frame.seq);
}

TEST(Mac, AckForWrongSeqOrAddressIgnored) {
  NodeMac node(1, MacTiming{});
  ReaderMac reader{MacTiming{}};
  const auto r1 = node.on_downlink(reader.make_query(1), SensorReading{});
  ASSERT_TRUE(r1);
  node.on_downlink(reader.make_ack(2, r1->frame.seq), SensorReading{});  // other node
  EXPECT_TRUE(node.awaiting_ack());
  node.on_downlink(reader.make_ack(1, static_cast<std::uint8_t>(r1->frame.seq + 1)),
                   SensorReading{});  // stale seq
  EXPECT_TRUE(node.awaiting_ack());
}

TEST(Mac, ReaderDedupesRetransmissionsOnSeq) {
  ReaderMac reader{MacTiming{}};
  Frame report;
  report.addr = 9;
  report.type = FrameType::kSensorReport;
  report.seq = 17;
  EXPECT_EQ(reader.on_report(report), ReaderMac::UplinkEvent::kDelivered);
  EXPECT_EQ(reader.on_report(report), ReaderMac::UplinkEvent::kDuplicate);
  EXPECT_EQ(reader.on_report(report), ReaderMac::UplinkEvent::kDuplicate);
  report.seq = 18;
  EXPECT_EQ(reader.on_report(report), ReaderMac::UplinkEvent::kDelivered);
  // Dedupe is per address: another node's seq 18 is a fresh report.
  report.addr = 10;
  EXPECT_EQ(reader.on_report(report), ReaderMac::UplinkEvent::kDelivered);
}

TEST(Mac, BackoffIsExponentialWithCeiling) {
  ArqConfig arq;
  arq.demote_after_misses = 100;
  ReaderMac reader{MacTiming{}, arq};
  EXPECT_EQ(reader.backoff_slots(4), 0u);
  std::vector<std::size_t> seen;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(reader.on_miss(4), ReaderMac::MissAction::kRetry);
    seen.push_back(reader.backoff_slots(4));
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 4, 8, 8, 8}));
  EXPECT_EQ(seen.front(), kBackoffBaseSlots);
  EXPECT_EQ(seen.back(), kBackoffCeilingSlots);
}

TEST(Mac, DemotionAfterConsecutiveMisses) {
  ArqConfig arq;
  arq.demote_after_misses = 2;
  ReaderMac reader{MacTiming{}, arq};
  EXPECT_EQ(reader.on_miss(5), ReaderMac::MissAction::kRetry);
  EXPECT_EQ(reader.on_miss(5), ReaderMac::MissAction::kRetry);
  EXPECT_EQ(reader.on_miss(5), ReaderMac::MissAction::kDemote);
  reader.demote(5);
  // Demotion wipes ARQ state: the node restarts clean after re-discovery.
  EXPECT_EQ(reader.backoff_slots(5), 0u);
  EXPECT_EQ(reader.on_miss(5), ReaderMac::MissAction::kRetry);
}

TEST(Mac, BroadcastIsNotANodeAddress) {
  EXPECT_THROW(NodeMac(kBroadcastAddr, MacTiming{}), std::invalid_argument);
}

}  // namespace
}  // namespace vab::net
