// FLEET — Fleet-scale inventory scaling: many readers, 1k..10k+ backscatter
// nodes over the spatially partitioned medium, with adaptive PHY fidelity
// (link-budget abstraction by default, waveform escalation for marginal or
// contended links).
//
// Also the determinism gate for the fleet core: the largest sweep point is
// re-run with the parallel engine pinned to 1, 2, and 8 threads and every
// replicate's digest must match bit-for-bit (exit code 1 on mismatch).
// `budget_s=N` adds a wall-clock ceiling on the sweep (exit code 2), which
// CI uses to catch superlinear regressions in the fleet hot path.
// `series=<path>` records every closed address window as a vab-series-v1
// JSONL point (virtual-clock time base, labeled by sweep point / replicate /
// reader) — purely observational, digests are unchanged.
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/scenario.hpp"

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("FLEET", "Fleet-scale inventory scaling",
                "van atta backscatter scales to dense sensor deployments");

  const std::uint64_t seed = cfg.get_count("seed", 23);
  const auto max_nodes = cfg.get_count("max_nodes", 10000);
  const auto replicates = cfg.get_count("replicates", 4);
  const auto wave_cap = cfg.get_count("wave_cap", 8);
  const double budget_s = cfg.get_double("budget_s", 0.0);
  const std::string series_path = cfg.get_string("series", "");
  const unsigned threads = bench::init_threads(cfg);
  common::Rng rng(seed);
  bench::Stopwatch total;

  // Window-level time series, streamed as vab-series-v1 JSONL. Replicates
  // run in parallel, so each run buffers its points (FleetResult::series)
  // and we emit them here in replicate order with a run-global sequence
  // number — byte-identical output for any thread count.
  std::unique_ptr<obs::SeriesWriter> series;
  std::uint64_t series_seq = 0;
  if (!series_path.empty())
    series = std::make_unique<obs::SeriesWriter>("fleet.windows", series_path);

  struct SweepPoint {
    std::size_t n_nodes;
    std::size_t n_readers;
    double area_m;
  };
  const std::vector<SweepPoint> sweep = {
      {100, 1, 300.0},    {1000, 4, 800.0},   {3000, 9, 1200.0},
      {10000, 16, 2000.0}, {30000, 36, 3500.0}, {100000, 100, 6000.0}};

  const auto make_config = [&](const SweepPoint& pt) {
    sim::fleet::FleetConfig fc;
    fc.scenario = sim::vab_river_scenario();
    fc.n_nodes = pt.n_nodes;
    fc.n_readers = pt.n_readers;
    fc.area_m = pt.area_m;
    fc.fidelity.max_waveform_polls = wave_cap;
    fc.record_series = series != nullptr;
    return fc;
  };

  common::Table t({"nodes", "readers", "assigned", "delivered", "ratio", "windows",
                   "wave_polls", "makespan_s", "wall_s", "digest"});
  std::size_t total_nodes = 0;
  sim::fleet::FleetConfig largest;
  std::uint64_t largest_tag = 0;
  bool have_largest = false;
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const SweepPoint& pt = sweep[p];
    if (pt.n_nodes > max_nodes) continue;
    const sim::fleet::FleetConfig fc = make_config(pt);
    bench::Stopwatch sw;
    const auto runs =
        sim::fleet::run_fleet_replicates(fc, replicates, rng.child(p));
    const double wall = sw.seconds();
    std::uint64_t digest = 0;
    std::size_t assigned = 0, delivered = 0, windows = 0, wave_polls = 0;
    double makespan = 0.0;
    for (const auto& r : runs) {
      digest = (digest * 0x100000001b3ULL) ^ r.digest;
      assigned += r.assigned;
      delivered += r.delivered;
      windows += r.windows;
      wave_polls += r.tally.waveform_polls;
      makespan = std::max(makespan, r.makespan_s);
    }
    if (series) {
      for (std::size_t k = 0; k < runs.size(); ++k) {
        for (const auto& wp : runs[k].series) {
          obs::SeriesPoint sp;
          sp.window = series_seq++;
          sp.t_s = wp.t_close_s;
          sp.labels = {{"nodes", std::to_string(pt.n_nodes)},
                       {"replicate", std::to_string(k)},
                       {"reader", std::to_string(wp.reader)}};
          sp.values = {{"window", wp.window},
                       {"contenders", wp.contenders},
                       {"links", wp.links},
                       {"delivered", wp.delivered},
                       {"polls", wp.polls},
                       {"retries", wp.retries},
                       {"timeouts", wp.timeouts},
                       {"escalations", wp.escalations},
                       {"waveform_polls", wp.waveform_polls}};
          sp.reals = {{"airtime_s", wp.airtime_s}};
          series->emit(sp);
        }
      }
    }
    total_nodes += pt.n_nodes * replicates;
    largest = fc;
    largest_tag = p;
    have_largest = true;
    const double ratio =
        assigned ? static_cast<double>(delivered) / static_cast<double>(assigned)
                 : 0.0;
    t.add_row({std::to_string(pt.n_nodes), std::to_string(pt.n_readers),
               std::to_string(assigned), std::to_string(delivered),
               common::Table::num(ratio, 3), std::to_string(windows),
               std::to_string(wave_polls), common::Table::num(makespan, 0),
               common::Table::num(wall, 2), hex64(digest)});
  }
  bench::emit(t, cfg);
  const double sweep_s = total.seconds();
  bench::emit_timing("FLEET", "node_sweep", sweep_s, total_nodes);

  // Determinism gate: the largest sweep point, re-run with the engine pinned
  // to 1, 2, and 8 threads. Every replicate digest must match bit-for-bit.
  bool identical = true;
  if (have_largest && cfg.get_bool("check_identity", true)) {
    largest.record_series = false;  // the gate compares digests, not series
    std::vector<std::vector<std::uint64_t>> digests;
    for (const unsigned n : {1U, 2U, 8U}) {
      common::set_thread_count(n);
      const auto runs = sim::fleet::run_fleet_replicates(largest, replicates,
                                                         rng.child(largest_tag));
      std::vector<std::uint64_t> d;
      d.reserve(runs.size());
      for (const auto& r : runs) d.push_back(r.digest);
      digests.push_back(std::move(d));
    }
    common::set_thread_count(threads);
    for (std::size_t i = 1; i < digests.size(); ++i)
      if (digests[i] != digests[0]) identical = false;
    std::cout << "thread identity (1/2/8 threads, " << largest.n_nodes
              << " nodes): " << (identical ? "bit-identical" : "MISMATCH") << "\n";
  }

  if (budget_s > 0.0 && sweep_s > budget_s) {
    std::cout << "BUDGET EXCEEDED: sweep took " << common::Table::num(sweep_s, 2)
              << " s (budget " << common::Table::num(budget_s, 2) << " s)\n";
    return 2;
  }
  return identical ? 0 : 1;
}
