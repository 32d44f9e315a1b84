// E5 — Head-to-head comparison table: VAB vs prior-art single-element
// backscatter (PAB) and a non-retro fixed-phase array, at the same
// throughput and node power. The paper's headline 15x range claim.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "piezo/harvester.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E5", "Head-to-head vs prior state of the art",
                "15x range at the same throughput and power");

  const auto trials = cfg.get_count("trials", 300);
  common::Rng rng(cfg.get_count("seed", 5));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  struct Row {
    const char* name;
    sim::Scenario scenario;
  };
  sim::Scenario fixed = sim::vab_river_scenario();
  fixed.node.array.mode = vanatta::ArrayMode::kFixedPhase;
  std::vector<Row> rows{{"VAB (this work)", sim::vab_river_scenario()},
                        {"PAB single-element", sim::pab_river_scenario()},
                        {"fixed-phase array", fixed}};

  const piezo::PowerBudget power{};
  common::Table t({"system", "max_range_m", "max_range_30deg_m", "range_vs_pab",
                   "throughput_bps", "node_power_uW", "energy_per_bit_nJ"});
  double pab_range = 1.0;
  std::vector<double> max_ranges, off_ranges;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    common::Rng local = rng.child(i);
    const sim::LinkBudget lb(rows[i].scenario);
    max_ranges.push_back(lb.max_range(1e-3, trials, local).raw());
    // Underwater nodes cannot be aimed: repeat at 30 degrees off broadside.
    sim::Scenario off = rows[i].scenario;
    off.node.orientation_rad = common::deg_to_rad(30.0);
    common::Rng local2 = rng.child(100 + i);
    off_ranges.push_back(sim::LinkBudget(off).max_range(1e-3, trials, local2).raw());
    if (std::string(rows[i].name).find("PAB") != std::string::npos)
      pab_range = max_ranges.back();
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double bitrate = rows[i].scenario.phy.bitrate_bps;
    t.add_row({rows[i].name, common::Table::num(max_ranges[i], 0),
               common::Table::num(off_ranges[i], 0),
               common::Table::num(max_ranges[i] / pab_range, 1) + "x",
               common::Table::num(bitrate, 0),
               common::Table::num(power.backscatter_w * 1e6, 1),
               common::Table::num(piezo::energy_per_bit_j(power, bitrate) * 1e9, 1)});
  }
  bench::emit(t, cfg);
  // Each max_range_m bisection runs up to 26 Monte-Carlo batches of `trials`
  // packets; two bisections (broadside + 30 deg) per system.
  bench::emit_timing("E5", "max_range_bisect", sw.seconds(),
                     rows.size() * 2 * 26 * trials);

  std::cout << "note: all systems share the projector, carrier, bitrate and node power\n"
               "budget; the range gain comes from the retrodirective array + the\n"
               "matching/polarity co-design (ablations: E2, E3, E7, E10).\n";
  return 0;
}
