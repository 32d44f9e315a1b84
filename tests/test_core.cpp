// VabNode / VabReader end-to-end protocol logic and the network simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "core/node.hpp"
#include "core/reader.hpp"
#include "core/system.hpp"
#include "dsp/iir.hpp"
#include "sim/scenario.hpp"

namespace vab::core {
namespace {

NodeConfig node_config(std::uint8_t addr) {
  NodeConfig cfg;
  cfg.address = addr;
  cfg.phy.fs_hz = 96000.0;
  cfg.array.f_design_hz = cfg.phy.carrier_hz;
  return cfg;
}

// The node's analog front end: rectify the passband downlink and low-pass
// to recover the PIE envelope.
rvec envelope_detect(const rvec& passband, double fs) {
  dsp::OnePole lp(200.0, fs);
  rvec env(passband.size());
  for (std::size_t i = 0; i < passband.size(); ++i)
    env[i] = lp.process(std::abs(passband[i]));
  return env;
}

TEST(CoreLoop, DownlinkQueryToScheduledUplink) {
  ReaderConfig rc;
  rc.phy.fs_hz = 96000.0;
  VabReader reader(rc);
  VabNode node(node_config(3));
  node.set_sensor_reading({21.5, 180.0, 2900});

  const net::Frame query = reader.mac().make_query(3);
  const rvec downlink = reader.make_downlink_waveform(query);
  const rvec env = envelope_detect(downlink, rc.phy.fs_hz);

  const auto up = node.handle_downlink(env, rc.phy.fs_hz);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->frame.addr, 3);
  EXPECT_EQ(up->frame.type, net::FrameType::kSensorReport);
  EXPECT_GT(up->switch_states.size(), 0u);
  EXPECT_GT(up->tx_offset_s, 0.0);
  const auto reading = net::decode_reading(up->frame.payload);
  ASSERT_TRUE(reading.has_value());
  EXPECT_NEAR(reading->temperature_c, 21.5, net::kTempResolutionC);
}

TEST(CoreLoop, WrongAddressIgnored) {
  ReaderConfig rc;
  rc.phy.fs_hz = 96000.0;
  VabReader reader(rc);
  VabNode node(node_config(3));
  const rvec downlink = reader.make_downlink_waveform(reader.mac().make_query(9));
  EXPECT_FALSE(node.handle_downlink(envelope_detect(downlink, rc.phy.fs_hz), rc.phy.fs_hz)
                   .has_value());
}

TEST(CoreLoop, GarbageEnvelopeIgnored) {
  VabNode node(node_config(3));
  EXPECT_FALSE(node.handle_downlink(rvec(5000, 0.3), 96000.0).has_value());
}

TEST(CoreLoop, UplinkDecodeThroughReader) {
  // Node produces switch states; emulate an ideal reflection channel and
  // feed the reader's uplink chain.
  ReaderConfig rc;
  rc.phy.fs_hz = 96000.0;
  VabReader reader(rc);
  VabNode node(node_config(3));
  node.set_sensor_reading({15.25, 120.5, 3100});

  const net::Frame query = reader.mac().make_query(3);
  const rvec env = envelope_detect(reader.make_downlink_waveform(query), rc.phy.fs_hz);
  const auto up = node.handle_downlink(env, rc.phy.fs_hz);
  ASSERT_TRUE(up.has_value());

  // Carrier multiplied by modulated reflection + blast.
  const std::size_t n = up->switch_states.size() + 2048;
  rvec rx = reader.make_carrier(n);
  phy::BackscatterModulator mod(rc.phy);
  const bitvec mask = mod.active_mask(net::serialize_bits(up->frame).size());
  for (std::size_t i = 0; i < n; ++i) {
    double coef = 1.0;  // blast
    if (i < up->switch_states.size() && i < mask.size() && mask[i])
      coef += 0.05 * (up->switch_states[i] ? 1.0 : -1.0);
    rx[i] *= coef;
  }
  const auto decode = reader.decode_uplink(rx, up->frame.payload.size());
  ASSERT_TRUE(decode.demod.sync_found);
  ASSERT_TRUE(decode.frame.has_value());
  EXPECT_EQ(decode.frame->addr, 3);
  const auto reading = net::decode_reading(decode.frame->payload);
  ASSERT_TRUE(reading.has_value());
  EXPECT_NEAR(reading->pressure_kpa, 120.5, net::kPressureResolutionKpa);
}

TEST(Network, DeliveryDegradesWithRange) {
  sim::Scenario s = sim::vab_river_scenario();
  std::vector<NetworkNode> near_nodes, far_nodes;
  for (std::uint8_t i = 0; i < 4; ++i) {
    near_nodes.push_back({i, 100.0 + 10.0 * i, 0.0, i});
    far_nodes.push_back({i, 380.0 + 10.0 * i, 0.0, i});
  }
  common::Rng rng(1);
  const auto near_res = NetworkSimulator(s, near_nodes).run(50, 6, rng);
  common::Rng rng2(2);
  const auto far_res = NetworkSimulator(s, far_nodes).run(50, 6, rng2);
  EXPECT_GT(near_res.delivery_rate(), 0.95);
  EXPECT_LT(far_res.delivery_rate(), near_res.delivery_rate());
}

TEST(Network, GoodputScalesWithNodeCount) {
  sim::Scenario s = sim::vab_river_scenario();
  common::Rng rng(3);
  std::vector<NetworkNode> one{{0, 100.0, 0.0, 0}};
  std::vector<NetworkNode> four;
  for (std::uint8_t i = 0; i < 4; ++i) four.push_back({i, 100.0, 0.0, i});
  const auto r1 = NetworkSimulator(s, one).run(30, 6, rng);
  common::Rng rng2(4);
  const auto r4 = NetworkSimulator(s, four).run(30, 6, rng2);
  // More nodes: longer rounds but more packets per round; goodput rises
  // (sub-linearly) because the downlink+guard overhead amortizes.
  EXPECT_GT(r4.goodput_bps, r1.goodput_bps);
  EXPECT_GT(r4.round_duration_s, r1.round_duration_s);
}

TEST(Network, PerNodeStatsTrackOrientation) {
  sim::Scenario s = sim::vab_river_scenario();
  // Same range; one node badly oriented with a fixed-phase array would fail,
  // but Van Atta keeps both alive.
  std::vector<NetworkNode> nodes{{0, 250.0, 0.0, 0},
                                 {1, 250.0, common::deg_to_rad(35.0), 1}};
  common::Rng rng(5);
  const auto res = NetworkSimulator(s, nodes).run(60, 6, rng);
  ASSERT_EQ(res.per_node_delivery.size(), 2u);
  EXPECT_GT(res.per_node_delivery[1], 0.6);
}

TEST(Network, EmptyNodeListRejected) {
  EXPECT_THROW(NetworkSimulator(sim::vab_river_scenario(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace vab::core
