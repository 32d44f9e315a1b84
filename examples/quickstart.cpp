// Quickstart: one Van Atta backscatter uplink, end to end at waveform level.
//
//   ./quickstart [range_m=100] [bitrate=500] [env=river|ocean] [seed=1]
//
// Builds the river scenario, runs one full trial (projector carrier ->
// multipath -> 8-element Van Atta node -> multipath -> hydrophone -> SIC ->
// equalizer -> FM0 decode) and prints the link diagnostics.
#include <iostream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);

  sim::Scenario s = cfg.get_string("env", "river") == "ocean"
                        ? sim::vab_ocean_scenario()
                        : sim::vab_river_scenario();
  s.range_m = cfg.get_double("range_m", 100.0);
  s.phy.bitrate_bps = cfg.get_double("bitrate", 500.0);
  common::Rng rng(cfg.get_count("seed", 1));

  std::cout << "VAB quickstart: " << s.env.name << " @ " << s.range_m << " m, "
            << s.phy.bitrate_bps << " bps, " << s.node.array.n_elements
            << "-element Van Atta array\n\n";

  // What the link budget predicts.
  const sim::LinkBudget budget(s);
  const auto lb = budget.evaluate(common::Meters{s.range_m});
  std::cout << "link budget: TL(one-way) "
            << common::Table::num(lb.tl_one_way_db.raw(), 1) << " dB | carrier at node "
            << common::Table::num(lb.received_at_node_db.raw(), 1)
            << " dB re uPa | return "
            << common::Table::num(lb.modulated_return_db.raw(), 1)
            << " dB | chip SNR " << common::Table::num(lb.snr_chip_db.raw(), 1)
            << " dB | predicted BER " << common::Table::sci(lb.ber) << "\n\n";

  // One real trial through the full DSP chain.
  sim::WaveformSimulator wsim(s, rng);
  const bitvec payload = rng.random_bits(cfg.get_count("payload_bits", 64));
  const auto res = wsim.run_trial(payload);

  std::cout << "waveform trial:\n";
  std::cout << "  sync:            " << (res.demod.sync_found ? "yes" : "NO") << " (corr "
            << common::Table::num(res.demod.corr_peak, 2) << ")\n";
  std::cout << "  bit errors:      " << res.bit_errors << " / " << payload.size() << "\n";
  std::cout << "  chip SNR:        " << common::Table::num(res.demod.snr_db, 1)
            << " dB\n";
  std::cout << "  SIC suppression: "
            << common::Table::num(res.demod.sic_suppression_db, 1)
            << " dB\n";
  std::cout << "  channel fit err: " << common::Table::num(res.demod.channel_fit_error, 3)
            << "\n";
  std::cout << "  SPL at node:     "
            << common::Table::num(res.incident_spl_at_node_db, 1) << " dB re 1 uPa\n";
  std::cout << "\n" << (res.frame_ok ? "frame decoded OK" : "frame FAILED") << "\n";
  return res.frame_ok ? 0 : 1;
}
