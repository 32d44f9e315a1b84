// E3 — Range and SNR vs number of Van Atta elements: the ~N^2 retro gain
// converts into range through the spreading law.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E3", "Array-size scaling",
                "retro gain ~ N^2; range grows with element count");

  const auto trials = cfg.get_count("trials", 200);
  common::Rng rng(cfg.get_count("seed", 3));
  const double ref_range = cfg.get_double("range_m", 200.0);
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  common::Table t({"elements", "retro_gain_db", "snr_at_200m_db", "max_range_m_ber1e-3"});
  for (std::size_t n : {1u, 2u, 4u, 6u, 8u, 12u, 16u}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.node.array.n_elements = n;
    if (n == 1) s.node.array.mode = vanatta::ArrayMode::kSingleElement;
    const sim::LinkBudget lb(s);
    const vanatta::VanAttaArray arr(s.node.array);
    common::Rng local = rng.child(n);
    t.add_row({std::to_string(n),
               common::Table::num(arr.monostatic_gain_db(0.0, s.phy.carrier_hz), 1),
               common::Table::num(
                   lb.evaluate(common::Meters{ref_range}).snr_chip_db.raw(), 1),
               common::Table::num(lb.max_range(1e-3, trials, local).raw(), 0)});
  }
  bench::emit(t, cfg);
  bench::emit_timing("E3", "max_range_bisect", sw.seconds(), 7 * 26 * trials);
  return 0;
}
