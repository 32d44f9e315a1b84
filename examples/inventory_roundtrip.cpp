// Full protocol round trip through the public API: the reader PIE-encodes a
// query onto its carrier, the node's envelope detector + MAC decode it and
// schedule an FM0 backscatter report, and the reader's uplink chain decodes
// the sensor frame — all at waveform level.
//
//   ./inventory_roundtrip [node_addr=3] [temp_c=18.25] [seed=2]
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/node.hpp"
#include "core/reader.hpp"
#include "dsp/iir.hpp"
#include "net/frame.hpp"

namespace {

using namespace vab;

// Node analog front end: passive rectifier + RC low-pass.
rvec envelope_detect(const rvec& passband, double fs) {
  dsp::OnePole lp(200.0, fs);
  rvec env(passband.size());
  for (std::size_t i = 0; i < passband.size(); ++i)
    env[i] = lp.process(std::abs(passband[i]));
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  // The top address is broadcast; a node answers to 0..254 only.
  const std::size_t node_addr = cfg.get_count("node_addr", 3);
  if (node_addr >= net::kBroadcastAddr)
    throw std::invalid_argument("config key 'node_addr' must be at most 254, got " +
                                std::to_string(node_addr));
  const auto addr = static_cast<std::uint8_t>(node_addr);
  common::Rng rng(cfg.get_count("seed", 2));

  // --- Set up reader and node ---------------------------------------------
  core::ReaderConfig rc;
  rc.phy.fs_hz = 96000.0;
  core::VabReader reader(rc);

  core::NodeConfig nc;
  nc.address = addr;
  nc.phy = rc.phy;
  nc.array.f_design_hz = rc.phy.carrier_hz;
  core::VabNode node(nc);
  node.set_sensor_reading({cfg.get_double("temp_c", 18.25), 204.2, 2870});

  std::cout << "reader -> node " << static_cast<int>(addr) << ": QUERY\n";

  // --- Downlink -------------------------------------------------------------
  const net::Frame query = reader.mac().make_query(addr);
  rvec downlink = reader.make_downlink_waveform(query);
  // Simple attenuating channel for the downlink demo (the node's envelope
  // detector is threshold-based, so scale does not matter).
  for (auto& v : downlink) v *= 0.01;
  const auto uplink = node.handle_downlink(envelope_detect(downlink, rc.phy.fs_hz),
                                           rc.phy.fs_hz);
  if (!uplink) {
    std::cout << "node did not respond (downlink decode failed)\n";
    return 1;
  }
  std::cout << "node decoded the query; backscattering seq "
            << static_cast<int>(uplink->frame.seq) << " after "
            << common::Table::num(uplink->tx_offset_s, 2) << " s guard\n";

  // --- Uplink: node switch states modulate the reader's carrier ------------
  const bitvec frame_bits = net::serialize_bits(uplink->frame);
  const std::size_t n = uplink->switch_states.size() + 4096;
  rvec rx = reader.make_carrier(n);
  phy::BackscatterModulator mod(rc.phy);
  const bitvec mask = mod.active_mask(frame_bits.size());
  const double mod_depth = 2e-3;  // backscatter ~54 dB below the blast
  for (std::size_t i = 0; i < n; ++i) {
    double coef = 1.0;
    if (i < uplink->switch_states.size() && i < mask.size() && mask[i])
      coef += mod_depth * (uplink->switch_states[i] ? 1.0 : -1.0);
    rx[i] *= coef;
    rx[i] += 1e-4 * rng.gaussian();
  }

  const auto decode = reader.decode_uplink(rx, uplink->frame.payload.size());
  std::cout << "reader uplink: sync=" << (decode.demod.sync_found ? "yes" : "no")
            << " corr=" << common::Table::num(decode.demod.corr_peak, 2)
            << " SIC=" << common::Table::num(decode.demod.sic_suppression_db, 1)
            << " dB\n";
  if (!decode.frame) {
    std::cout << "frame CRC failed\n";
    return 1;
  }
  const auto reading = net::decode_reading(decode.frame->payload);
  if (!reading) {
    std::cout << "payload malformed\n";
    return 1;
  }
  std::cout << "\nsensor report from node " << static_cast<int>(decode.frame->addr)
            << ": temperature " << common::Table::num(reading->temperature_c, 3)
            << " C, pressure " << common::Table::num(reading->pressure_kpa, 1)
            << " kPa, storage " << reading->battery_mv << " mV\n";
  return 0;
}
