// VabNode / VabReader end-to-end protocol logic, and a field of nodes
// polled on the poll-and-ARQ MAC.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"
#include "core/node.hpp"
#include "core/reader.hpp"
#include "dsp/iir.hpp"
#include "net/app.hpp"
#include "net/inventory.hpp"
#include "net/mcs/mcs.hpp"
#include "net/mcs/transport.hpp"
#include "sim/linkbudget.hpp"
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

// One reader polling nodes placed at (range, orientation) on the
// poll-and-ARQ MAC: the composition E12 and the coastal-monitoring example
// run. Each node's mean SNR is its own link budget's; every uplink fades
// around it with the environment's log-normal spread.
struct FieldNode {
  double range_m;
  double orientation_rad;
};

net::TelemetryResult run_field(const sim::Scenario& base,
                               const std::vector<FieldNode>& field,
                               std::size_t cycles, common::Rng& rng) {
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  net::mcs::AnalyticMcsConfig tcfg;
  tcfg.fading_sigma_db = base.env.fading_sigma_db;
  net::mcs::AnalyticMcsTransport transport(ladder, tcfg);
  std::vector<std::uint8_t> population;
  for (std::size_t i = 0; i < field.size(); ++i) {
    population.push_back(static_cast<std::uint8_t>(i + 1));
    sim::Scenario s = base;
    s.range_m = field[i].range_m;
    s.node.orientation_rad = field[i].orientation_rad;
    transport.set_snr_db(
        population.back(),
        net::mcs::to_reference_scale(
            sim::LinkBudget(s).evaluate(common::Meters{s.range_m}).snr_chip_db,
            base.phy.chip_rate()));
  }
  net::InventoryConfig icfg;
  icfg.timing.slot_payload_bytes = net::kReadingBytes;
  return net::run_telemetry(population, cycles, icfg, nullptr, rng, &transport);
}

double poll_delivery(const net::TelemetryResult& r) {
  return static_cast<double>(r.totals.delivered) / static_cast<double>(r.totals.polls);
}

TEST(Network, DeliveryDegradesWithRange) {
  sim::Scenario s = sim::vab_river_scenario();
  std::vector<FieldNode> near_nodes, far_nodes;
  for (int i = 0; i < 4; ++i) {
    near_nodes.push_back({100.0 + 10.0 * i, 0.0});
    far_nodes.push_back({380.0 + 10.0 * i, 0.0});
  }
  common::Rng rng(1);
  const auto near_res = run_field(s, near_nodes, 50, rng);
  common::Rng rng2(2);
  const auto far_res = run_field(s, far_nodes, 50, rng2);
  EXPECT_GT(poll_delivery(near_res), 0.95);
  EXPECT_LT(poll_delivery(far_res), poll_delivery(near_res));
}

TEST(Network, PerNodeStatsTrackOrientation) {
  sim::Scenario s = sim::vab_river_scenario();
  // Same range; one node badly oriented with a fixed-phase array would fail,
  // but Van Atta keeps both alive.
  const std::vector<FieldNode> nodes{{250.0, 0.0}, {250.0, common::deg_to_rad(35.0)}};
  common::Rng rng(5);
  const auto res = run_field(s, nodes, 60, rng);
  ASSERT_EQ(res.delivered_per_node.size(), 2u);
  EXPECT_GT(static_cast<double>(res.delivered_per_node[1]) / 60.0, 0.6);
}

TEST(Network, EmptyNodeListRejected) {
  common::Rng rng(6);
  EXPECT_THROW(net::run_telemetry({}, 1, net::InventoryConfig{}, nullptr, rng),
               std::invalid_argument);
}

// The transport adds its fade to the budget's unfaded SNR; that is the
// old in-budget fade only because the budget's fade enters additively.
TEST(Network, BudgetFadeIsAdditiveInSnr) {
  const sim::LinkBudget budget(sim::vab_river_scenario());
  for (double range : {50.0, 150.0, 300.0, 600.0}) {
    const common::Meters r{range};
    for (double fade : {-9.0, -3.0, 0.0, 2.5, 7.0}) {
      EXPECT_NEAR(budget.evaluate(r, common::Db{fade}).snr_chip_db.raw(),
                  budget.evaluate(r).snr_chip_db.raw() + fade, 1e-9)
          << range << " m, fade " << fade << " dB";
    }
  }
}

}  // namespace
}  // namespace vab::core
