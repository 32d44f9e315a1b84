// Cross-module property sweeps (parameterized): invariants that must hold
// across the whole configuration space, not just at the preset operating
// points.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "channel/absorption.hpp"
#include "channel/multipath.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/fleet/event_queue.hpp"
#include "sim/fleet/fleet.hpp"
#include "phy/ber.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"
#include "phy/fm0.hpp"
#include "phy/miller.hpp"
#include "piezo/matching.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "vanatta/array.hpp"

namespace vab {
namespace {

// ---- Link budget invariants over environment x bitrate -------------------

// The environment is a std::string, not a const char*, so gtest prints it by
// value: a pointer parameter would put a per-process (ASLR) address into the
// discovered ctest name.
class BudgetSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(BudgetSweep, SnrStrictlyDecreasingInRange) {
  const auto [env, bitrate] = GetParam();
  sim::Scenario s = env == "ocean" ? sim::vab_ocean_scenario()
                                   : sim::vab_river_scenario();
  s.phy.bitrate_bps = bitrate;
  const sim::LinkBudget lb(s);
  double prev = 1e99;
  for (double r = 10.0; r <= 1000.0; r *= 1.6) {
    const double snr = lb.evaluate(common::Meters{r}).snr_chip_db.raw();
    EXPECT_LT(snr, prev) << env << " " << bitrate << " @" << r;
    prev = snr;
  }
}

TEST_P(BudgetSweep, BerBoundedAndMonotoneInFading) {
  const auto [env, bitrate] = GetParam();
  sim::Scenario s = env == "ocean" ? sim::vab_ocean_scenario()
                                   : sim::vab_river_scenario();
  s.phy.bitrate_bps = bitrate;
  const sim::LinkBudget lb(s);
  for (double r : {50.0, 200.0, 600.0}) {
    const double ber_up = lb.evaluate(common::Meters{r}, common::Db{+6.0}).ber;
    const double ber_dn = lb.evaluate(common::Meters{r}, common::Db{-6.0}).ber;
    EXPECT_LE(ber_up, ber_dn);
    EXPECT_GE(ber_up, 0.0);
    EXPECT_LE(ber_dn, 0.5 + 1e-9);
  }
}

TEST_P(BudgetSweep, HalvingBitrateBuysAbout3dB) {
  const auto [env, bitrate] = GetParam();
  sim::Scenario s = env == "ocean" ? sim::vab_ocean_scenario()
                                   : sim::vab_river_scenario();
  s.phy.bitrate_bps = bitrate;
  const double snr_full =
      sim::LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  s.phy.bitrate_bps = bitrate / 2.0;
  const double snr_half =
      sim::LinkBudget(s).evaluate(common::Meters{200.0}).snr_chip_db.raw();
  EXPECT_NEAR(snr_half - snr_full, 3.01, 0.05);
}

INSTANTIATE_TEST_SUITE_P(EnvRates, BudgetSweep,
                         ::testing::Combine(::testing::Values(std::string("river"),
                                                              std::string("ocean")),
                                            ::testing::Values(100.0, 500.0, 2000.0)));

// ---- Line-code invariants over random payloads ----------------------------

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, AllLineCodesRoundTripRandomPayloads) {
  common::Rng rng(GetParam());
  const std::size_t n = 8 * static_cast<std::size_t>(rng.uniform_int(1, 24));
  const bitvec bits = rng.random_bits(n);
  EXPECT_EQ(phy::fm0_decode(phy::fm0_encode(bits)), bits);
  for (unsigned m : {2u, 4u, 8u})
    EXPECT_EQ(phy::miller_decode(phy::miller_encode(bits, m), m), bits) << m;
}

TEST_P(CodecFuzz, FecNeverMakesCleanDataWorse) {
  common::Rng rng(GetParam() + 1000);
  const std::size_t n = 4 * static_cast<std::size_t>(rng.uniform_int(1, 32));
  const bitvec data = rng.random_bits(n);
  phy::FrameCodec codec;
  std::size_t corrected = 0;
  EXPECT_EQ(codec.decode(codec.encode(data), n, corrected), data);
}

TEST_P(CodecFuzz, CrcCatchesRandomTwoBitCorruption) {
  common::Rng rng(GetParam() + 2000);
  bytes msg(12);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::uint16_t crc = phy::crc16(msg);
  bytes wire = msg;
  wire.push_back(static_cast<std::uint8_t>(crc >> 8));
  wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  // Any two distinct bit flips: CRC-16 detects all double-bit errors within
  // its guarantee length.
  const auto total_bits = wire.size() * 8;
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<long>(total_bits) - 1));
  auto j = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<long>(total_bits) - 1));
  if (j == i) j = (j + 1) % total_bits;
  wire[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
  wire[j / 8] ^= static_cast<std::uint8_t>(1u << (j % 8));
  const std::size_t n = msg.size();
  const auto stored = static_cast<std::uint16_t>((wire[n] << 8) | wire[n + 1]);
  EXPECT_NE(phy::crc16(std::span(wire).first(n)), stored);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range<std::uint64_t>(0, 8));

// ---- Array invariants over geometry ---------------------------------------

class ArraySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArraySweep, RetroGainIndependentOfSpacing) {
  // Retrodirectivity holds for any element spacing (grating lobes move, the
  // monostatic return does not).
  const std::size_t n = GetParam();
  for (double spacing_frac : {0.25, 0.5, 0.8}) {
    vanatta::VanAttaConfig cfg;
    cfg.n_elements = n;
    cfg.element_efficiency = 1.0;
    cfg.line_loss_db = 0.0;
    cfg.switch_insertion_db = 0.0;
    cfg.directivity_q = 0.0;
    cfg.spacing_m = spacing_frac * 1500.0 / 18500.0;
    const vanatta::VanAttaArray arr(cfg);
    for (double deg : {-40.0, 0.0, 25.0}) {
      EXPECT_NEAR(arr.monostatic_gain_db(common::deg_to_rad(deg), 18500.0),
                  20.0 * std::log10(static_cast<double>(n)), 1e-6)
          << n << " " << spacing_frac << " " << deg;
    }
  }
}

TEST_P(ArraySweep, ModulationAmplitudeScalesLinearlyWithN) {
  const std::size_t n = GetParam();
  vanatta::VanAttaConfig cfg;
  cfg.n_elements = n;
  cfg.element_efficiency = 1.0;
  cfg.line_loss_db = 0.0;
  cfg.switch_insertion_db = 0.0;
  cfg.directivity_q = 0.0;
  cfg.scheme = vanatta::ModulationScheme::kPolarity;
  const vanatta::VanAttaArray arr(cfg);
  EXPECT_NEAR(arr.modulation_amplitude(0.0, 18500.0), static_cast<double>(n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArraySweep, ::testing::Values(2u, 4u, 6u, 8u, 12u));

// ---- Channel invariants ----------------------------------------------------

TEST(ChannelProperties, AbsorptionLinearInRange) {
  for (double f : {10e3, 18.5e3, 50e3}) {
    const channel::WaterProperties w;
    const double a1 =
        channel::absorption_loss(common::Hz{f}, common::Meters{100.0}, w).raw();
    const double a2 =
        channel::absorption_loss(common::Hz{f}, common::Meters{200.0}, w).raw();
    EXPECT_NEAR(a2, 2.0 * a1, 1e-9) << f;
  }
}

TEST(ChannelProperties, TapEnergyNeverExceedsLosslessBound) {
  // With bounce losses >= 0 and spreading, total tap power is bounded by
  // the sum of per-path spreading alone.
  channel::MultipathConfig cfg;
  cfg.water_depth_m = 8.0;
  cfg.max_order = 5;
  cfg.min_relative_amplitude = 1e-6;
  const auto taps = channel::image_method_taps(common::Meters{120.0}, common::Meters{2.0},
                        common::Meters{6.0}, 1500.0, cfg);
  for (const auto& t : taps) {
    const double r = t.delay_s * 1500.0;
    EXPECT_LE(std::abs(t.gain), 1.0 / std::max(r, 1.0) + 1e-12);
  }
}

TEST(ChannelProperties, MoreBouncesArriveLater) {
  channel::MultipathConfig cfg;
  cfg.water_depth_m = 10.0;
  cfg.max_order = 3;
  const auto taps = channel::image_method_taps(common::Meters{80.0}, common::Meters{3.0},
                        common::Meters{6.0}, 1500.0, cfg);
  // Delay of the earliest k-bounce arrival grows with k.
  double prev_min = -1.0;
  for (int k = 0; k <= 3; ++k) {
    double min_delay = 1e9;
    for (const auto& t : taps)
      if (t.surface_bounces + t.bottom_bounces == k)
        min_delay = std::min(min_delay, t.delay_s);
    if (min_delay == 1e9) continue;
    EXPECT_GT(min_delay, prev_min);
    prev_min = min_delay;
  }
}

// ---- Matching invariants ---------------------------------------------------

TEST(MatchingProperties, MatchedEfficiencyPeaksAtDesignFrequency) {
  for (double q : {10.0, 25.0, 60.0}) {
    const auto bvd = piezo::BvdModel::from_resonance(18500.0, q, 0.3, 10e-9, 0.7);
    const piezo::MatchedTransducer mt(bvd, 50.0, 18500.0);
    const double at_f0 = mt.radiated_fraction(18500.0);
    EXPECT_NEAR(at_f0, 0.7, 0.01) << q;  // perfect match x eta
    for (double off : {0.93, 1.07})
      EXPECT_LT(mt.radiated_fraction(18500.0 * off), at_f0) << q << " " << off;
  }
}

// ---- Fleet event-queue / virtual-clock invariants --------------------------

class EventSoup : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventSoup, TimeMonotoneAndFifoAmongEqualTimestamps) {
  // Seeded random soup of interleaved pushes and pops. Timestamps are drawn
  // from a small discrete set, so ties are the common case, not the corner.
  common::Rng rng(GetParam() * 31 + 5);
  sim::fleet::EventQueue q;
  std::uint64_t pushed = 0, popped = 0;
  double last_time = -1.0;  // below any event time: first pop never ties
  std::uint64_t last_push_seq_at_time = 0;
  for (int step = 0; step < 2000; ++step) {
    if (q.empty() || rng.coin(0.6)) {
      // Future times only: quantized to quarter seconds to force ties.
      const double t =
          q.now_s() + 0.25 * static_cast<double>(rng.uniform_int(0, 12));
      q.push(sim::fleet::Event{t, 0, 0, pushed});  // payload = push index
      ++pushed;
    } else {
      const auto ev = q.pop();
      ASSERT_TRUE(ev.has_value());
      // Virtual time never runs backwards, and the clock tracks the pop.
      ASSERT_GE(ev->time_s, last_time);
      ASSERT_EQ(q.now_s(), ev->time_s);
      // FIFO among equal timestamps: push order (payload) must ascend.
      if (ev->time_s == last_time) {
        ASSERT_GT(ev->payload, last_push_seq_at_time);
      }
      last_time = ev->time_s;
      last_push_seq_at_time = ev->payload;
      ++popped;
    }
  }
  while (auto ev = q.pop()) {
    ASSERT_GE(ev->time_s, last_time);
    if (ev->time_s == last_time) {
      ASSERT_GT(ev->payload, last_push_seq_at_time);
    }
    last_time = ev->time_s;
    last_push_seq_at_time = ev->payload;
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(q.pushed(), pushed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventSoup, ::testing::Range<std::uint64_t>(0, 6));

TEST(FleetDeterminismProperties, ReplicatesBitIdenticalAcrossThreadCounts) {
  // The fleet's parallelism is across independent seeded replicates; the
  // digests (FNV over every integer protocol outcome) must be identical at
  // 1, 2, and 8 threads.
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_river_scenario();
  fc.n_nodes = 500;
  fc.n_readers = 4;
  fc.area_m = 700.0;
  fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  const common::Rng rng(77);

  std::vector<std::vector<std::uint64_t>> digests;
  for (const unsigned n : {1U, 2U, 8U}) {
    common::set_thread_count(n);
    const auto runs = sim::fleet::run_fleet_replicates(fc, 6, rng);
    std::vector<std::uint64_t> d;
    for (const auto& r : runs) d.push_back(r.digest);
    digests.push_back(std::move(d));
  }
  common::set_thread_count(0);
  ASSERT_EQ(digests[0].size(), 6u);
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);
  // Distinct replicates genuinely differ (the digest is not degenerate).
  EXPECT_NE(digests[0][0], digests[0][1]);
}

TEST(BerProperties, AllCurvesMonotoneDecreasingInSnr) {
  double prev_bpsk = 1.0, prev_ook = 1.0, prev_non = 1.0;
  for (double db = -10.0; db <= 15.0; db += 1.0) {
    const double g = std::pow(10.0, db / 10.0);
    EXPECT_LE(phy::ber_bpsk(g), prev_bpsk);
    EXPECT_LE(phy::ber_ook_coherent(g), prev_ook);
    EXPECT_LE(phy::ber_ook_noncoherent(g), prev_non);
    prev_bpsk = phy::ber_bpsk(g);
    prev_ook = phy::ber_ook_coherent(g);
    prev_non = phy::ber_ook_noncoherent(g);
  }
}

}  // namespace
}  // namespace vab
