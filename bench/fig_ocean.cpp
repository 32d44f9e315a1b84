// E4 — Ocean deployment: BER vs range under the coastal-ocean profile
// (salt-water absorption, deeper column, calm-sea Wenz noise). The paper's
// first-in-ocean validation.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E4", "Ocean deployment BER vs range",
                "first experimental validation of underwater backscatter in the ocean");

  const auto trials = cfg.get_count("trials", 400);
  common::Rng rng(cfg.get_count("seed", 4));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  const rvec ranges{25, 50, 100, 150, 200, 250, 300, 350};
  const auto ocean =
      sim::ber_vs_range_sweep(sim::vab_ocean_scenario(), ranges, trials, 1024, rng);
  const auto river =
      sim::ber_vs_range_sweep(sim::vab_river_scenario(), ranges, trials, 1024, rng);

  common::Table t({"range_m", "ocean_snr_db", "ocean_ber", "river_snr_db", "river_ber"});
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    t.add_row({common::Table::num(ranges[i], 0), common::Table::num(ocean[i].snr_db, 1),
               common::Table::sci(ocean[i].ber), common::Table::num(river[i].snr_db, 1),
               common::Table::sci(river[i].ber)});
  }
  bench::emit(t, cfg);

  // Waveform check in the ocean profile.
  sim::Scenario s = sim::vab_ocean_scenario();
  s.range_m = cfg.get_double("waveform_range_m", 200.0);
  s.env.fading_sigma_db = 0.0;
  const auto stats =
      sim::run_waveform_batch({sim::WaveformJob{s, 3, 64, rng.child(99)}}).front();
  std::cout << "waveform check @" << s.range_m << " m: frames_ok=" << stats.frames_ok
            << "/" << stats.trials << " ber=" << stats.ber() << "\n";
  bench::emit_timing("E4", "sweep+waveform", sw.seconds(),
                     2 * ranges.size() * trials + 3);
  return 0;
}
