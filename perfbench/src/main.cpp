// vab_perfbench, the repository benchmark. Usually started through
// perfbench/run.py, which builds it first:
//
//   vab_perfbench --workload wave_campaign|fleet_budget|fleet_adaptive
//                 --seed N --seconds S --trace 0|1 [--threads T]
//                 [--workdir DIR] [--setup-only]
//
// Prints human-readable lines (fingerprints, cross-checks, the run
// manifest) and, last, one JSON object with `correct`, `attempted`, `failed`
// and `metrics`: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 1 when an output check failed, 2 on a usage
// error.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "dsp/simd/simd.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    o = parse_options(argc, argv);
    if (o.workload != "wave_campaign" && o.workload != "fleet_budget" &&
        o.workload != "fleet_adaptive")
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "vab_perfbench: " << e.what() << "\n";
    return 2;
  }
  vab::obs::set_manifest("seed", std::to_string(o.seed));
  vab::obs::set_manifest("perfbench.workload", o.workload);
  vab::obs::set_manifest("perfbench.trace", o.trace ? "1" : "0");
  vab::dsp::simd::active_isa();  // records "simd_isa" in the manifest

  Result res;
  try {
    if (o.workload == "wave_campaign") {
      res = run_wave_campaign(o);
    } else if (o.workload == "fleet_budget") {
      res = run_fleet_budget(o);
    } else {
      res = run_fleet_adaptive(o);
    }
  } catch (const std::exception& e) {
    std::cerr << "vab_perfbench: " << o.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (o.setup_only) {
    std::printf("setup_s %.17g\n", res.setup_s);
    return res.checks_ok ? 0 : 1;
  }
  if (!o.trace) {
    res.metrics.insert(res.metrics.begin(), Metric{"setup_s", res.setup_s, "s"});
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    // The complement of the error rate: a metric that reads 0 when every
    // operation succeeds cannot carry a relative bound.
    res.add("success_rate",
            1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted),
            "ratio");
  }
  vab::obs::set_manifest("perfbench.attempted", std::to_string(res.attempted));
  vab::obs::set_manifest("perfbench.failed", std::to_string(res.failed));
  std::printf("manifest %s\n", vab::obs::manifest_json().c_str());
  std::printf("%s\n", res.json().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
