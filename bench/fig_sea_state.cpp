// Extension bench — sea-state robustness: waveform trials under surface-wave
// motion (time-varying multipath) and rising wind noise. Stresses the
// preamble-trained equalizer with channels that drift within a frame.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("EXT-2", "Sea-state robustness",
                "field trials span sea states; the link must ride surface motion");

  const auto trials = cfg.get_count("trials", 3);
  common::Rng rng(cfg.get_count("seed", 22));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  // All (sea-state, trial) pairs run as one flat batch over the engine.
  struct Condition {
    double wave, wind;
  };
  std::vector<Condition> conditions;
  std::vector<sim::WaveformJob> jobs;
  for (double wave : {0.0, 0.1, 0.3}) {
    for (double wind : {3.0, 10.0}) {
      sim::Scenario s = sim::vab_ocean_scenario();
      s.range_m = cfg.get_double("range_m", 150.0);
      s.env.fading_sigma_db = 0.0;
      s.env.noise.wind_speed_mps = wind;
      s.env.multipath.surface_loss_db = 2.0 + wave * 8.0;  // rougher = lossier
      s.env.surface_wave_amplitude_m = wave;
      s.env.surface_wave_period_s = 5.0;
      sim::WaveformJob j;
      j.scenario = std::move(s);
      j.trials = trials;
      j.payload_bits = 64;
      j.rng = rng.child(static_cast<std::uint64_t>(wave * 100 + wind));
      jobs.push_back(std::move(j));
      conditions.push_back({wave, wind});
    }
  }
  const auto all_stats = sim::run_waveform_batch(jobs);

  common::Table t({"wave_amp_m", "wind_mps", "frames_ok", "ber", "mean_snr_db"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = all_stats[i];
    t.add_row({common::Table::num(conditions[i].wave, 1),
               common::Table::num(conditions[i].wind, 0),
               std::to_string(stats.frames_ok) + "/" + std::to_string(trials),
               common::Table::sci(stats.ber()),
               common::Table::num(stats.mean_snr_db, 1)});
  }
  bench::emit(t, cfg);
  bench::emit_timing("EXT-2", "waveform_batch", sw.seconds(), jobs.size() * trials);
  return 0;
}
