// E1 — BER vs range in the river deployment (paper Fig.: range evaluation).
//
// Series: VAB (8-element Van Atta, polarity FM0) and the PAB single-element
// baseline, fading Monte-Carlo on the calibrated link budget; selected
// ranges are cross-checked with full waveform-level trials.
//
// Trials fan out over the parallel engine (threads=N / VAB_THREADS). The
// whole workload is re-run at 1 thread for the speedup counter (skip with
// baseline=0) and the two runs are asserted bit-identical — the engine's
// determinism contract, exercised on the real workload every bench run.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"

namespace {

struct E1Results {
  std::vector<vab::sim::SweepPoint> vab_sweep;
  std::vector<vab::sim::SweepPoint> pab_sweep;
  std::vector<vab::sim::WaveformStats> waveform;  // one per validation range
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E1", "BER vs range (river)",
                ">300 m round trip at BER 1e-3; PAB baseline fails past tens of meters");

  const auto trials = cfg.get_count("trials", 400);
  const auto bits = cfg.get_count("bits_per_trial", 1024);
  const auto wf_trials = cfg.get_count("waveform_trials", 3);
  const std::uint64_t seed = cfg.get_count("seed", 1);
  const unsigned threads = bench::init_threads(cfg);
  obs::set_manifest("seed", std::to_string(seed));

  const rvec ranges{25, 50, 75, 100, 150, 200, 250, 300, 350, 400, 500};
  const std::vector<double> wf_ranges{100.0, 200.0, 300.0};

  auto run_all = [&]() {
    common::Rng rng(seed);
    E1Results r;
    r.vab_sweep = sim::ber_vs_range_sweep(sim::vab_river_scenario(), ranges, trials,
                                          bits, rng);
    r.pab_sweep = sim::ber_vs_range_sweep(sim::pab_river_scenario(), ranges, trials,
                                          bits, rng);
    // Waveform-level validation points (full PHY chain, no-fading channel),
    // fanned out as one flat batch so every (range, trial) pair runs
    // concurrently.
    std::vector<sim::WaveformJob> jobs;
    for (double wr : wf_ranges) {
      sim::WaveformJob j;
      j.scenario = sim::vab_river_scenario();
      j.scenario.range_m = wr;
      j.scenario.env.fading_sigma_db = 0.0;
      j.trials = wf_trials;
      j.payload_bits = 64;
      j.rng = rng.child(static_cast<std::uint64_t>(wr));
      jobs.push_back(std::move(j));
    }
    r.waveform = sim::run_waveform_batch(jobs);
    return r;
  };

  bench::Stopwatch sw;
  const E1Results res = run_all();
  const double elapsed = sw.seconds();
  const std::size_t total_trials =
      2 * ranges.size() * trials + wf_ranges.size() * wf_trials;

  common::Table t({"range_m", "vab_snr_db", "vab_ber", "pab_snr_db", "pab_ber"});
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    t.add_row({common::Table::num(ranges[i], 0),
               common::Table::num(res.vab_sweep[i].snr_db, 1),
               common::Table::sci(res.vab_sweep[i].ber),
               common::Table::num(res.pab_sweep[i].snr_db, 1),
               common::Table::sci(res.pab_sweep[i].ber)});
  }
  bench::emit(t, cfg);

  std::cout << "waveform validation (full DSP chain):\n";
  common::Table v({"range_m", "frames_ok", "measured_ber", "mean_chip_snr_db"});
  for (std::size_t i = 0; i < wf_ranges.size(); ++i) {
    const auto& stats = res.waveform[i];
    v.add_row({common::Table::num(wf_ranges[i], 0),
               std::to_string(stats.frames_ok) + "/" + std::to_string(stats.trials),
               common::Table::sci(stats.ber()),
               common::Table::num(stats.mean_snr_db, 1)});
  }
  bench::emit(v, common::Config{});

  // Serial baseline: same workload at 1 thread, for the speedup counter and
  // a live check of the thread-count-invariance contract.
  double serial_elapsed = 0.0;
  if (threads > 1 && cfg.get_bool("baseline", true)) {
    common::set_thread_count(1);
    sw.reset();
    const E1Results serial = run_all();
    serial_elapsed = sw.seconds();
    common::set_thread_count(threads);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      if (serial.vab_sweep[i].errors != res.vab_sweep[i].errors ||
          serial.pab_sweep[i].errors != res.pab_sweep[i].errors) {
        std::cerr << "DETERMINISM VIOLATION: serial and " << threads
                  << "-thread sweeps differ at point " << i << "\n";
        return 1;
      }
    }
    for (std::size_t i = 0; i < res.waveform.size(); ++i) {
      if (serial.waveform[i].bit_errors != res.waveform[i].bit_errors) {
        std::cerr << "DETERMINISM VIOLATION: waveform batch differs at point " << i
                  << "\n";
        return 1;
      }
    }
    std::cout << "determinism: " << threads
              << "-thread run bit-identical to 1-thread run\n";
  }
  bench::emit_timing("E1", "sweep+waveform", elapsed, total_trials, serial_elapsed);
  return 0;
}
