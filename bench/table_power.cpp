// E9 — Node power budget: state powers, energy per bit, harvested power vs
// range and the energy-neutral operating region (battery-free operation).
#include <iostream>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "piezo/bvd.hpp"
#include "piezo/harvester.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E9", "Node power budget",
                "ultra-low-power: uW-scale node, battery-free near the reader");

  bench::init_threads(cfg);
  bench::Stopwatch sw;
  const piezo::PowerBudget power{};
  common::Table s({"state", "power_uW"});
  s.add_row({"sleep (RTC + leakage)", common::Table::num(power.sleep_w * 1e6, 2)});
  s.add_row({"downlink listen (envelope det.)",
             common::Table::num(power.rx_listen_w * 1e6, 1)});
  s.add_row({"backscatter uplink (FM0 + switches)",
             common::Table::num(power.backscatter_w * 1e6, 1)});
  s.add_row({"MCU active (sensor burst)",
             common::Table::num(power.mcu_active_w * 1e6, 0)});
  bench::emit(s, cfg);

  common::Table e({"bitrate_bps", "energy_per_bit_nJ"});
  for (double b : {100.0, 500.0, 1000.0, 2000.0})
    e.add_row({common::Table::num(b, 0),
               common::Table::num(piezo::energy_per_bit_j(power, b) * 1e9, 1)});
  bench::emit(e, common::Config{});

  // Harvested power vs range in the river scenario.
  const piezo::BvdModel bvd =
      piezo::BvdModel::from_resonance(18500.0, 25.0, 0.3, 10e-9, 0.6);
  const piezo::EnergyHarvester harvester(bvd);
  const sim::LinkBudget lb(sim::vab_river_scenario());
  const double avg_load =
      power.average_power_w(0.90, 0.05, 0.04, 0.01);  // typical duty cycle

  common::Table h({"range_m", "carrier_spl_db", "harvested_uW", "energy_neutral"});
  for (double r : {5.0, 10.0, 20.0, 40.0, 80.0, 160.0}) {
    const double spl = lb.carrier_spl_at_node(common::Meters{r}).raw();
    const double p_in =
        harvester.harvested_power_w(common::pressure_from_spl(spl));
    h.add_row({common::Table::num(r, 0), common::Table::num(spl, 1),
               common::Table::num(p_in * 1e6, 2),
               p_in * 0.95 >= avg_load ? "yes" : "no"});
  }
  bench::emit(h, common::Config{});
  std::cout << "duty-cycled load: " << common::Table::num(avg_load * 1e6, 2)
            << " uW (90% sleep / 5% listen / 4% backscatter / 1% active)\n";
  bench::emit_timing("E9", "power_budget", sw.seconds(), 6);
  return 0;
}
