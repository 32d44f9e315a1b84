// E12 — Multi-node network: one reader polls a field of Van Atta nodes on
// the poll-and-ARQ MAC (query -> report -> ACK); delivery rate and goodput
// vs node count and deployment radius (the coastal-monitoring application
// the paper motivates).
//
// Each grid point is `rounds` telemetry cycles of net::run_telemetry, one
// poll per node per cycle, a sensor reading per report. The medium is the
// analytic transport at the paper's rate: each node's mean SNR comes from
// the link budget at its own range and orientation, and every uplink draws
// a log-normal fade around it.
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/app.hpp"
#include "net/inventory.hpp"
#include "net/mcs/mcs.hpp"
#include "net/mcs/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E12", "Multi-node poll-and-ARQ network",
                "coastal monitoring: tens of nodes served by one reader");

  const auto rounds = cfg.get_count("rounds", 100);
  common::Rng rng(cfg.get_count("seed", 12));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  const sim::Scenario scenario = sim::vab_river_scenario();
  const common::Hz chip_rate = scenario.phy.chip_rate();
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  net::InventoryConfig icfg;
  icfg.timing.slot_payload_bytes = net::kReadingBytes;

  // Each (node-count, radius) configuration is a self-contained simulation
  // with its own child streams: fan the grid out, print rows in grid order.
  struct NetConfig {
    std::size_t n_nodes;
    double radius;
  };
  std::vector<NetConfig> grid;
  for (std::size_t n_nodes : {2u, 4u, 8u, 16u})
    for (double radius : {150.0, 300.0}) grid.push_back({n_nodes, radius});

  std::vector<net::TelemetryResult> results(grid.size());
  common::parallel_for(0, grid.size(), [&](std::size_t g) {
    const std::size_t n_nodes = grid[g].n_nodes;
    const double radius = grid[g].radius;
    net::mcs::AnalyticMcsConfig tcfg;
    tcfg.fading_sigma_db = scenario.env.fading_sigma_db;
    net::mcs::AnalyticMcsTransport transport(ladder, tcfg);
    std::vector<std::uint8_t> population(n_nodes);
    common::Rng geom = rng.child(n_nodes * 1000 + static_cast<std::uint64_t>(radius));
    for (std::size_t i = 0; i < n_nodes; ++i) {
      population[i] = static_cast<std::uint8_t>(i + 1);
      sim::Scenario s = scenario;
      s.range_m = geom.uniform(0.3 * radius, radius);
      s.node.orientation_rad = geom.uniform(-common::kPi / 4.0, common::kPi / 4.0);
      transport.set_snr_db(
          population[i],
          net::mcs::to_reference_scale(
              sim::LinkBudget(s).evaluate(common::Meters{s.range_m}).snr_chip_db,
              chip_rate));
    }
    common::Rng run_rng = rng.child(n_nodes + static_cast<std::uint64_t>(radius) * 37);
    results[g] =
        net::run_telemetry(population, rounds, icfg, nullptr, run_rng, &transport);
  });

  common::Table t({"nodes", "radius_m", "round_s", "delivery_rate", "goodput_bps"});
  std::size_t total_rounds = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto& res = results[g];
    total_rounds += rounds;
    const double round_s =
        rounds ? res.totals.duration_s / static_cast<double>(rounds) : 0.0;
    const double delivery =
        res.totals.polls ? static_cast<double>(res.totals.delivered) /
                               static_cast<double>(res.totals.polls)
                         : 0.0;
    t.add_row({std::to_string(grid[g].n_nodes), common::Table::num(grid[g].radius, 0),
               common::Table::num(round_s, 2), common::Table::num(delivery, 3),
               common::Table::num(res.goodput_bps(), 1)});
  }
  bench::emit(t, cfg);
  bench::emit_timing("E12", "network_grid", sw.seconds(), total_rounds);
  return 0;
}
