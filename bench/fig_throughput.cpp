// E6 — Throughput vs range: achievable bitrate at BER 1e-3 as a function of
// distance (chip bandwidth trades against the noise floor in the link
// budget; multipath ISI bounds the chip rate in the waveform chain).
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/linkbudget.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E6", "Throughput vs range",
                "hundreds of bps sustained to hundreds of meters");

  const auto trials = cfg.get_count("trials", 200);
  common::Rng rng(cfg.get_count("seed", 6));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  const std::vector<double> bitrates{100, 200, 500, 1000, 2000};
  common::Table t(
      {"bitrate_bps", "max_range_m_ber1e-3", "snr_at_300m_db", "ber_at_300m"});
  for (std::size_t i = 0; i < bitrates.size(); ++i) {
    sim::Scenario s = sim::vab_river_scenario();
    s.phy.bitrate_bps = bitrates[i];
    const sim::LinkBudget lb(s);
    common::Rng local = rng.child(i);
    const auto at300 = lb.evaluate(common::Meters{300.0});
    t.add_row({common::Table::num(bitrates[i], 0),
               common::Table::num(lb.max_range(1e-3, trials, local).raw(), 0),
               common::Table::num(at300.snr_chip_db.raw(), 1),
               common::Table::sci(at300.ber)});
  }
  bench::emit(t, cfg);

  // Waveform cross-check: multipath ISI makes high chip rates worse than the
  // bandwidth-only link budget predicts. All (bitrate, trial) pairs fan out
  // as one flat batch.
  std::cout << "waveform ISI check @150 m (3 trials each):\n";
  const std::vector<double> wf_bitrates{200.0, 1000.0, 2000.0};
  std::vector<sim::WaveformJob> jobs;
  for (double b : wf_bitrates) {
    sim::WaveformJob j;
    j.scenario = sim::vab_river_scenario();
    j.scenario.phy.bitrate_bps = b;
    j.scenario.range_m = 150.0;
    j.scenario.env.fading_sigma_db = 0.0;
    j.trials = 3;
    j.payload_bits = 64;
    j.rng = rng.child(1000 + static_cast<std::uint64_t>(b));
    jobs.push_back(std::move(j));
  }
  const auto wf_stats = sim::run_waveform_batch(jobs);
  common::Table v({"bitrate_bps", "frames_ok", "ber"});
  for (std::size_t i = 0; i < wf_bitrates.size(); ++i) {
    const auto& stats = wf_stats[i];
    v.add_row({common::Table::num(wf_bitrates[i], 0),
               std::to_string(stats.frames_ok) + "/" + std::to_string(stats.trials),
               common::Table::sci(stats.ber())});
  }
  bench::emit(v, common::Config{});
  bench::emit_timing("E6", "bisect+waveform", sw.seconds(),
                     bitrates.size() * 26 * trials + jobs.size() * 3);
  return 0;
}
