// Ocean survey with a moving reader: a boat transects past a line of
// battery-free nodes, querying as it goes. Tracks, per node, when it is in
// communication range, when it harvests enough to be energy-neutral, and
// the storage-capacitor voltage over the day — the deployment arithmetic
// behind the paper's coastal-monitoring pitch.
//
//   ./ocean_survey [passes=4] [spacing_m=150] [nodes=5] [seed=9]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/energy.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/mcs/mcs.hpp"
#include "piezo/bvd.hpp"
#include "piezo/harvester.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  const auto n_nodes = cfg.get_count("nodes", 5);
  const double spacing = cfg.get_double("spacing_m", 150.0);
  const auto passes = cfg.get_count("passes", 4);
  common::Rng rng(cfg.get_count("seed", 9));
  // threads=N overrides VAB_THREADS / hardware autodetection (0 = auto).
  // Saturate before narrowing so a huge count reads as "many", not wrapped.
  constexpr std::size_t kWidest = std::numeric_limits<unsigned>::max();
  common::set_thread_count(
      static_cast<unsigned>(std::min(cfg.get_count("threads", 0), kWidest)));

  std::cout << "Ocean survey: boat transects past " << n_nodes << " nodes at " << spacing
            << " m spacing, " << passes << " passes over 24 h\n\n";

  const sim::Scenario base = sim::vab_ocean_scenario();
  const net::mcs::McsEntry uplink = net::mcs::McsEntry::from_config(base.phy, base.fec);
  const piezo::BvdModel bvd =
      piezo::BvdModel::from_resonance(18500.0, 25.0, 0.3, 10e-9, 0.6);
  const piezo::EnergyHarvester harvester(bvd);
  const piezo::PowerBudget power{};

  // Node baseline load between passes: sleep plus ~40 s/day of sensing
  // bursts — the logging cadence a 0.1 F reservoir can actually sustain.
  const double idle_load = power.average_power_w(0.9995, 0.0, 0.0, 0.0005);

  // Each pass: the boat dwells ~10 minutes within range of each node,
  // projecting the carrier; nodes harvest while absorbing and answer
  // queries. Between passes: 24h/passes of idle drain.
  const double dwell_s = cfg.get_double("dwell_s", 600.0);
  const double gap_s = 24.0 * 3600.0 / static_cast<double>(passes) - dwell_s;

  // Each node is an independent simulation with its own child stream, so the
  // per-node loop fans out over the parallel engine and the table is
  // identical for any thread count (and to a serial run).
  struct NodeRow {
    double cross = 0.0;
    std::size_t queries_ok = 0;
    double harvest_w = 0.0;
    double min_v = 0.0;
    bool alive = true;
  };
  std::vector<NodeRow> node_rows(n_nodes);
  common::parallel_for(0, n_nodes, [&](std::size_t i) {
    common::Rng node_rng = rng.child(i);
    // Node offset from the boat track (cross-track distance at closest pass).
    const double cross = node_rng.uniform(20.0, 0.9 * spacing);
    sim::Scenario s = base;
    s.range_m = cross;
    const sim::LinkBudget lb(s);

    // Communication: frame delivery at the closest approach.
    const common::SnrDb snr = net::mcs::to_reference_scale(
        lb.evaluate(common::Meters{cross}).snr_chip_db, base.phy.chip_rate());
    const double per =
        1.0 - uplink.frame_delivery_prob(snr, net::wire_size(net::kReadingBytes) * 8);
    std::size_t ok = 0;
    for (std::size_t p = 0; p < passes; ++p)
      if (!node_rng.coin(per)) ++ok;

    // Energy: harvest during dwell, drain during the gap.
    const double spl = lb.carrier_spl_at_node(common::Meters{cross}).raw();
    const double harvest_w =
        harvester.harvested_power_w(common::pressure_from_spl(spl));
    core::CapacitorConfig cc;
    core::StorageCapacitor cap(cc);
    double min_v = cap.voltage();
    bool alive = true;
    for (std::size_t p = 0; p < passes && alive; ++p) {
      cap.charge(common::PowerW{harvest_w}, common::Seconds{dwell_s});
      cap.draw(common::PowerW{power.rx_listen_w + power.backscatter_w * 0.1},
               common::Seconds{dwell_s});
      alive = cap.draw(common::PowerW{idle_load}, common::Seconds{gap_s});
      min_v = std::min(min_v, cap.voltage());
    }
    node_rows[i] = {cross, ok, harvest_w, min_v, alive};
  });

  common::Table t({"node", "dist_from_track_m", "queries_ok", "harvest_per_pass_J",
                   "min_cap_V", "survives_day"});
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto& r = node_rows[i];
    t.add_row({std::to_string(i), common::Table::num(r.cross, 0),
               std::to_string(r.queries_ok) + "/" + std::to_string(passes),
               common::Table::num(r.harvest_w * dwell_s, 3),
               common::Table::num(r.min_v, 2), r.alive ? "yes" : "NO (brownout)"});
  }
  std::cout << t.to_string();
  std::cout << "\nidle load " << common::Table::num(idle_load * 1e6, 2)
            << " uW; capacitor " << core::CapacitorConfig{}.capacitance_f
            << " F usable "
            << common::Table::num(
                   core::StorageCapacitor(core::CapacitorConfig{}).usable_energy_j(), 3)
            << " J\n";
  return 0;
}
