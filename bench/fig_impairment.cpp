// EXT-5 — Impairment sweep: ARQ inventory delivery ratio and airtime cost
// vs Gilbert–Elliott burst-loss rate, with the retry protocol on and off.
//
// The paper's field trials report packet loss in bursts (surface waves,
// passing boats); this sweep quantifies how much a stop-and-wait ARQ with
// exponential backoff buys back. "arq=off" caps the retry budget at zero,
// so each node gets exactly one poll per round and loss shows up directly
// in the delivery ratio.
//
// `series=<path>` records one vab-series-v1 point per (loss, arq) grid cell,
// keyed on the cumulative virtual airtime of the sweep; the per-cell values
// are exact integer sums over the cell's trials, so the series is
// byte-identical for any thread count.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "net/inventory.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("EXT-5", "Burst-loss impairment sweep",
                "ARQ delivery ratio vs Gilbert-Elliott mean loss rate");

  const auto n_nodes = cfg.get_count("nodes", 16);
  const auto trials = cfg.get_count("trials", 50);
  common::Rng rng(cfg.get_count("seed", 5));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  std::vector<std::uint8_t> population(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i)
    population[i] = static_cast<std::uint8_t>(i + 1);

  struct Cell {
    double mean_loss;
    bool arq;
  };
  std::vector<Cell> grid;
  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5})
    for (bool arq : {false, true}) grid.push_back({loss, arq});

  struct CellStats {
    double delivery = 0.0, polls = 0.0, retries = 0.0, duration_s = 0.0,
           completed = 0.0;
    // Exact integer sums over the cell's trials (the columns above are
    // per-trial means), feeding the series export and any exact cross-run
    // comparison.
    std::uint64_t delivered_n = 0, polls_n = 0, retries_n = 0, completed_n = 0;
    double airtime_sum_s = 0.0;
  };
  std::vector<CellStats> stats(grid.size());

  common::parallel_for(0, grid.size(), [&](std::size_t g) {
    const Cell& cell = grid[g];
    CellStats acc;
    for (std::size_t t = 0; t < trials; ++t) {
      common::Rng trial_rng = rng.child(g * 10000 + t);
      net::InventoryConfig inv;
      if (!cell.arq) {
        inv.arq.max_retries = 0;
        inv.arq.demote_after_misses = 1000000;  // never demote: pure one-shot
      }
      fault::FaultPlan plan;
      plan.seed = 0x5EED000 + g * 1000 + t;
      if (cell.mean_loss > 0.0) {
        plan.burst.p_bad_to_good = 0.3;
        plan.burst.p_good_to_bad =
            0.3 * cell.mean_loss / (1.0 - cell.mean_loss);
        plan.burst.loss_good = 0.0;
        plan.burst.loss_bad = 1.0;
      }
      fault::FaultInjector inj(plan);
      fault::FaultInjector* hook = plan.empty() ? nullptr : &inj;
      // One-shot mode: a single round over the population, no re-rounds.
      if (!cell.arq) inv.max_polls = n_nodes;
      const net::InventoryResult r =
          net::run_inventory(population, inv, hook, trial_rng);
      acc.delivery += r.delivery_ratio();
      acc.polls += static_cast<double>(r.polls);
      acc.retries += static_cast<double>(r.retries);
      acc.duration_s += r.duration_s;
      acc.completed += r.complete ? 1.0 : 0.0;
      acc.delivered_n += static_cast<std::uint64_t>(r.delivered);
      acc.polls_n += static_cast<std::uint64_t>(r.polls);
      acc.retries_n += static_cast<std::uint64_t>(r.retries);
      acc.completed_n += r.complete ? 1 : 0;
      acc.airtime_sum_s += r.duration_s;
    }
    const double n = static_cast<double>(trials);
    stats[g] = {acc.delivery / n,    acc.polls / n,     acc.retries / n,
                acc.duration_s / n,  acc.completed / n, acc.delivered_n,
                acc.polls_n,         acc.retries_n,     acc.completed_n,
                acc.airtime_sum_s};
  });

  common::Table t({"mean_loss", "arq", "delivery_ratio", "polls", "retries",
                   "airtime_s", "complete_frac"});
  for (std::size_t g = 0; g < grid.size(); ++g) {
    t.add_row({common::Table::num(grid[g].mean_loss, 2),
               grid[g].arq ? "on" : "off",
               common::Table::num(stats[g].delivery, 3),
               common::Table::num(stats[g].polls, 1),
               common::Table::num(stats[g].retries, 1),
               common::Table::num(stats[g].duration_s, 2),
               common::Table::num(stats[g].completed, 2)});
  }
  bench::emit(t, cfg);

  // Cells ran in parallel; emission here walks the grid in declaration
  // order, keyed on cumulative virtual airtime, so the file is byte-stable.
  if (const std::string sp_path = cfg.get_string("series", ""); !sp_path.empty()) {
    obs::SeriesWriter series("impairment.cells", sp_path);
    double airtime_acc = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      airtime_acc += stats[g].airtime_sum_s;
      obs::SeriesPoint sp;
      sp.window = g;
      sp.t_s = airtime_acc;
      sp.labels = {{"loss", common::Table::num(grid[g].mean_loss, 2)},
                   {"arq", grid[g].arq ? "on" : "off"}};
      sp.values = {{"delivered", stats[g].delivered_n},
                   {"polls", stats[g].polls_n},
                   {"retries", stats[g].retries_n},
                   {"completed", stats[g].completed_n},
                   {"trials", trials}};
      sp.reals = {{"airtime_s", stats[g].airtime_sum_s}};
      series.emit(sp);
    }
    std::cout << "wrote " << sp_path << "\n";
  }

  bench::emit_timing("EXT-5", "impairment_sweep", sw.seconds(),
                     grid.size() * trials);
  return 0;
}
