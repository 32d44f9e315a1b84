// Coastal monitoring deployment: the application the paper's introduction
// motivates. A reader buoy inventories a field of battery-free Van Atta
// sensor nodes over TDMA rounds; we track delivery, goodput and each node's
// energy ledger over a simulated deployment.
//
//   ./coastal_monitoring [nodes=12] [radius_m=300] [hours=24] [seed=7]
#include <iostream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/system.hpp"
#include "piezo/bvd.hpp"
#include "piezo/harvester.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  const auto n_nodes = cfg.get_count("nodes", 12);
  const double radius = cfg.get_double("radius_m", 300.0);
  const double hours = cfg.get_double("hours", 24.0);
  common::Rng rng(cfg.get_count("seed", 7));

  std::cout << "Coastal monitoring: " << n_nodes << " battery-free nodes within "
            << radius << " m of the reader buoy, " << hours << " h deployment\n\n";

  // Scatter nodes over the field with arbitrary orientations — Van Atta
  // retrodirectivity is what makes the random orientation survivable.
  sim::Scenario scenario = sim::vab_ocean_scenario();
  std::vector<core::NetworkNode> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    core::NetworkNode n;
    n.address = static_cast<std::uint8_t>(i);
    n.slot = static_cast<std::uint8_t>(i);
    n.range_m = rng.uniform(0.15 * radius, radius);
    n.orientation_rad = rng.uniform(-common::kPi / 3.0, common::kPi / 3.0);
    nodes.push_back(n);
  }

  core::NetworkSimulator net(scenario, nodes);
  // Round cadence: one inventory round per minute of deployment.
  const auto rounds = static_cast<std::size_t>(hours * 60.0);
  const auto res = net.run(rounds, 6, rng);

  std::cout << "rounds: " << res.rounds << " ("
            << common::Table::num(res.round_duration_s, 2) << " s each)\n";
  std::cout << "delivery: " << res.packets_delivered << "/" << res.packets_attempted
            << " (" << common::Table::num(100.0 * res.delivery_rate(), 1) << "%)\n";
  std::cout << "network goodput: " << common::Table::num(res.goodput_bps, 1)
            << " bps of sensor payload\n\n";

  // Per-node view, including the harvesting budget at each node's range.
  const piezo::BvdModel bvd =
      piezo::BvdModel::from_resonance(18500.0, 25.0, 0.3, 10e-9, 0.6);
  const piezo::EnergyHarvester harvester(bvd);
  const piezo::PowerBudget power{};
  const sim::LinkBudget budget(scenario);
  // Duty cycle per round: the node backscatters one slot per round.
  const double bs_frac =
      net.nodes().empty() ? 0.0
                          : 0.3 / std::max(res.round_duration_s, 1e-9);

  common::Table t({"node", "range_m", "orient_deg", "delivery", "harvest_uW",
                   "load_uW", "battery_free"});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double spl =
        budget.carrier_spl_at_node(common::Meters{nodes[i].range_m}).raw();
    const double harvest =
        harvester.harvested_power_w(common::pressure_from_spl(spl));
    const double load = power.average_power_w(0.97 - bs_frac, 0.02, bs_frac, 0.01);
    t.add_row({std::to_string(i), common::Table::num(nodes[i].range_m, 0),
               common::Table::num(common::rad_to_deg(nodes[i].orientation_rad), 0),
               common::Table::num(100.0 * res.per_node_delivery[i], 1) + "%",
               common::Table::num(harvest * 1e6, 2), common::Table::num(load * 1e6, 2),
               harvest * 0.97 >= load ? "yes" : "no (cap-buffered)"});
  }
  std::cout << t.to_string();
  std::cout << "\nnodes beyond the harvesting radius run from their storage capacitor\n"
               "between reader passes; communication still works to ~300 m.\n";
  return 0;
}
