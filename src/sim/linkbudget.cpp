#include "sim/linkbudget.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "channel/noise.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "phy/ber.hpp"

namespace vab::sim {

LinkBudget::LinkBudget(Scenario scenario)
    : scenario_(std::move(scenario)),
      array_(scenario_.node.array),
      absorption_(common::Hz{scenario_.phy.carrier_hz}, scenario_.env.water),
      noise_in_band_(channel::noise_level(common::Hz{scenario_.phy.carrier_hz},
                                          common::Hz{scenario_.phy.chip_rate_hz()},
                                          scenario_.env.noise)),
      ts_mod_(kElementTargetStrengthDb +
              20.0 * std::log10(std::max(node_modulation_amplitude(), 1e-12))) {}

double LinkBudget::node_modulation_amplitude() const {
  return array_.modulation_amplitude(scenario_.node.orientation_rad,
                                     scenario_.phy.carrier_hz);
}

common::Db LinkBudget::tl_one_way(common::Meters range) const {
  return common::Db{scenario_.env.spreading_coeff *
                        std::log10(std::max(range.raw(), 1.0)) +
                    absorption_.loss(range).raw()};
}

common::Db LinkBudget::carrier_spl_at_node(common::Meters range) const {
  return common::Db{scenario_.reader.source_level_db - tl_one_way(range).raw()};
}

LinkBudgetResult LinkBudget::evaluate(common::Meters range, common::Db fading) const {
  if (range.raw() <= 0.0) throw std::invalid_argument("range must be > 0");
  LinkBudgetResult r;
  r.tl_one_way_db = tl_one_way(range);
  r.received_at_node_db = common::Db{scenario_.reader.source_level_db} - r.tl_one_way_db;
  r.modulated_return_db = r.received_at_node_db + ts_mod_ - r.tl_one_way_db + fading;
  r.noise_in_band_db = noise_in_band_;
  r.snr_chip_db = common::SnrDb{r.modulated_return_db.raw() - r.noise_in_band_db.raw()};
  r.ber = phy::ber_fm0(r.snr_chip_db.to_linear().raw());
  return r;
}

LinkBudget::BerTrialOutcome LinkBudget::monte_carlo_trial(common::Meters range,
                                                          std::size_t bits_per_trial,
                                                          const common::Rng& rng,
                                                          std::size_t t) const {
  common::Rng trial_rng = rng.child(t);
  const common::Db fade{trial_rng.gaussian(0.0, scenario_.env.fading_sigma_db)};
  const LinkBudgetResult r = evaluate(range, fade);
  std::binomial_distribution<std::size_t> binom(bits_per_trial,
                                                std::min(std::max(r.ber, 0.0), 1.0));
  return {binom(trial_rng.engine()), r.snr_chip_db.raw()};
}

LinkBudget::BerStats LinkBudget::fold_ber_trials(const BerTrialOutcome* slots,
                                                 std::size_t trials,
                                                 std::size_t bits_per_trial) {
  VAB_STAGE("linkbudget.accumulate");
  BerStats stats;
  double snr_acc = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    stats.errors += slots[t].errors;
    snr_acc += slots[t].snr_db;
  }
  stats.bits = trials * bits_per_trial;
  stats.mean_snr_db = trials ? snr_acc / static_cast<double>(trials) : 0.0;
  return stats;
}

LinkBudget::BerStats LinkBudget::monte_carlo(common::Meters range, std::size_t trials,
                                             std::size_t bits_per_trial,
                                             common::Rng& rng) const {
  // Trial t draws fade and bit errors from its own rng.child(t) stream;
  // slots are folded serially in trial order, so the result is bit-identical
  // for any thread count. `rng` itself is never advanced.
  VAB_STAGE("linkbudget.monte_carlo");
  static const obs::Counter trial_counter = obs::counter("linkbudget.trials");
  trial_counter.add(trials);
  std::vector<BerTrialOutcome> slots(trials);
  common::parallel_for(0, trials, [&](std::size_t t) {
    slots[t] = monte_carlo_trial(range, bits_per_trial, rng, t);
  });
  return fold_ber_trials(slots.data(), trials, bits_per_trial);
}

common::Meters LinkBudget::max_range(double target_ber, std::size_t trials,
                                     common::Rng& rng, common::Meters max_range) const {
  double lo = 1.0, hi = max_range.raw();
  // If even the minimum range fails, report zero; if the max passes, report it.
  auto ber_at = [&](double r) {
    common::Rng local = rng.child(static_cast<std::uint64_t>(r * 1000.0));
    return monte_carlo(common::Meters{r}, trials, 512, local).ber();
  };
  if (ber_at(lo) > target_ber) return common::Meters{0.0};
  if (ber_at(hi) <= target_ber) return common::Meters{hi};
  for (int i = 0; i < 24; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ber_at(mid) <= target_ber)
      lo = mid;
    else
      hi = mid;
  }
  return common::Meters{lo};
}

}  // namespace vab::sim
