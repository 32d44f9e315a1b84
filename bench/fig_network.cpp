// E12 — Multi-node network: TDMA inventory delivery rate and goodput vs
// node count and deployment radius (the coastal-monitoring application the
// paper motivates).
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/system.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E12", "Multi-node TDMA network",
                "coastal monitoring: tens of nodes served by one reader");

  const auto rounds = cfg.get_count("rounds", 100);
  common::Rng rng(cfg.get_count("seed", 12));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  // Each (node-count, radius) configuration is a self-contained simulation
  // with its own child streams: fan the grid out, print rows in grid order.
  struct NetConfig {
    std::size_t n_nodes;
    double radius;
  };
  std::vector<NetConfig> grid;
  for (std::size_t n_nodes : {2u, 4u, 8u, 16u})
    for (double radius : {150.0, 300.0}) grid.push_back({n_nodes, radius});

  std::vector<core::NetworkResult> results(grid.size());
  common::parallel_for(0, grid.size(), [&](std::size_t g) {
    const std::size_t n_nodes = grid[g].n_nodes;
    const double radius = grid[g].radius;
    std::vector<core::NetworkNode> nodes;
    common::Rng geom = rng.child(n_nodes * 1000 + static_cast<std::uint64_t>(radius));
    for (std::size_t i = 0; i < n_nodes; ++i) {
      core::NetworkNode node;
      node.address = static_cast<std::uint8_t>(i);
      node.slot = static_cast<std::uint8_t>(i);
      node.range_m = geom.uniform(0.3 * radius, radius);
      node.orientation_rad = geom.uniform(-common::kPi / 4.0, common::kPi / 4.0);
      nodes.push_back(node);
    }
    core::NetworkSimulator net(sim::vab_river_scenario(), std::move(nodes));
    common::Rng run_rng = rng.child(n_nodes + static_cast<std::uint64_t>(radius) * 37);
    results[g] = net.run(rounds, 6, run_rng);
  });

  common::Table t({"nodes", "radius_m", "round_s", "delivery_rate", "goodput_bps"});
  std::size_t total_rounds = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto& res = results[g];
    total_rounds += rounds;
    t.add_row({std::to_string(grid[g].n_nodes), common::Table::num(grid[g].radius, 0),
               common::Table::num(res.round_duration_s, 2),
               common::Table::num(res.delivery_rate(), 3),
               common::Table::num(res.goodput_bps, 1)});
  }
  bench::emit(t, cfg);
  bench::emit_timing("E12", "network_grid", sw.seconds(), total_rounds);
  return 0;
}
