// Array design explorer: sweeps the Van Atta configuration space (element
// count, spacing, losses, mismatch budget) and prints the resulting retro
// gain, field of view and expected communication range — the trade study a
// deployment engineer would run before building a node.
//
//   ./array_designer [elements=8] [spacing_lambda=0.5] [line_loss_db=0.5]
#include <iostream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "vanatta/mismatch.hpp"
#include "vanatta/pattern.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  common::Rng rng(cfg.get_count("seed", 4));

  const double lambda = 1500.0 / 18500.0;
  vanatta::VanAttaConfig base = sim::vab_river_scenario().node.array;
  base.n_elements = cfg.get_count("elements", 8);
  base.spacing_m = cfg.get_double("spacing_lambda", 0.5) * lambda;
  base.line_loss_db = cfg.get_double("line_loss_db", 0.5);

  std::cout << "Van Atta array designer (carrier 18.5 kHz, lambda = "
            << common::Table::num(lambda * 100.0, 1) << " cm)\n\n";

  // 1) Element-count trade: gain, physical size, range.
  common::Table t({"elements", "aperture_cm", "retro_gain_db", "fov_3db_deg",
                   "est_range_m"});
  for (std::size_t n : {2u, 4u, 6u, 8u, 12u, 16u}) {
    vanatta::VanAttaConfig ac = base;
    ac.n_elements = n;
    const vanatta::VanAttaArray arr(ac);
    sim::Scenario s = sim::vab_river_scenario();
    s.node.array = ac;
    common::Rng local = rng.child(n);
    t.add_row({std::to_string(n),
               common::Table::num(static_cast<double>(n - 1) * ac.spacing_m * 100.0 +
                                      ac.spacing_m * 100.0,
                                  1),
               common::Table::num(arr.monostatic_gain_db(0.0, 18500.0), 1),
               common::Table::num(vanatta::retro_fov_deg(arr, 18500.0), 0),
               common::Table::num(
                   sim::LinkBudget(s).max_range(1e-3, 150, local).raw(), 0)});
  }
  std::cout << t.to_string() << "\n";

  // 2) Retro pattern of the chosen design vs the fixed-phase baseline.
  std::cout << "monostatic pattern (chosen design vs fixed-phase baseline):\n";
  common::Table p({"angle_deg", "van_atta_db", "fixed_phase_db"});
  vanatta::VanAttaConfig fixed = base;
  fixed.mode = vanatta::ArrayMode::kFixedPhase;
  const vanatta::VanAttaArray va(base), fx(fixed);
  for (double deg = -60.0; deg <= 60.0 + 1e-9; deg += 15.0) {
    const double th = common::deg_to_rad(deg);
    p.add_row({common::Table::num(deg, 0),
               common::Table::num(va.monostatic_gain_db(th, 18500.0), 1),
               common::Table::num(fx.monostatic_gain_db(th, 18500.0), 1)});
  }
  std::cout << p.to_string() << "\n";

  // 3) Construction tolerance: how precisely must the pair lines match?
  std::cout << "line-length tolerance budget (0.5 dB mean retro-gain loss):\n";
  for (double sigma_deg : {5.0, 10.0, 20.0, 40.0}) {
    common::Rng local = rng.child(static_cast<std::uint64_t>(sigma_deg) + 100);
    const auto r = vanatta::mismatch_monte_carlo(
        base, 0.0, 18500.0, common::deg_to_rad(sigma_deg), 0.0, 300, local);
    std::cout << "  sigma " << common::Table::num(sigma_deg, 0) << " deg ("
              << common::Table::num(sigma_deg / 360.0 * lambda * 1000.0, 1)
              << " mm): mean loss " << common::Table::num(r.mean_loss_db, 2)
              << " dB, p95 " << common::Table::num(r.p95_loss_db, 2) << " dB"
              << (r.mean_loss_db <= 0.5 ? "  <- OK" : "") << "\n";
  }
  return 0;
}
