// E11 — Fabrication-tolerance Monte-Carlo: retro-gain loss vs per-element
// phase error (line-length mismatch) and amplitude spread. Justifies the
// equal-length-line construction requirement.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "vanatta/mismatch.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E11", "Mismatch tolerance Monte-Carlo",
                "equal-length pair lines keep the coherent retro gain");

  const auto trials = cfg.get_count("trials", 500);
  common::Rng rng(cfg.get_count("seed", 11));
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  vanatta::VanAttaConfig ac;
  ac.n_elements = cfg.get_count("elements", 8);

  common::Table t({"phase_sigma_deg", "line_len_sigma_mm", "mean_loss_db", "p95_loss_db",
                   "worst_loss_db"});
  const double lambda_mm = 1500.0 / 18500.0 * 1000.0;
  for (double sigma_deg : {2.0, 5.0, 10.0, 20.0, 45.0, 90.0}) {
    common::Rng local = rng.child(static_cast<std::uint64_t>(sigma_deg));
    const auto r = vanatta::mismatch_monte_carlo(
        ac, 0.0, 18500.0, common::deg_to_rad(sigma_deg), 0.0, trials, local);
    t.add_row({common::Table::num(sigma_deg, 0),
               common::Table::num(sigma_deg / 360.0 * lambda_mm, 2),
               common::Table::num(r.mean_loss_db, 2),
               common::Table::num(r.p95_loss_db, 2),
               common::Table::num(r.worst_loss_db, 2)});
  }
  bench::emit(t, cfg);

  std::cout << "amplitude-only spread (1 dB sigma per element):\n";
  common::Rng local = rng.child(999);
  const auto amp =
      vanatta::mismatch_monte_carlo(ac, 0.0, 18500.0, 0.0, 1.0, trials, local);
  std::cout << "  mean loss " << common::Table::num(amp.mean_loss_db, 2) << " dB, p95 "
            << common::Table::num(amp.p95_loss_db, 2) << " dB\n";
  bench::emit_timing("E11", "mismatch_mc", sw.seconds(), 7 * trials);
  return 0;
}
