// Analytic backscatter link budget + fading Monte-Carlo.
//
// The round-trip sonar equation for a modulated reflector:
//   SNR_chip = SL - 2*TL(r) + TS_mod - (NSD + 10 log10(Rc))
// where TS_mod = kElementTargetStrengthDb + 20 log10(modulation amplitude of
// the array at the node's orientation). Long-range sweeps (E1, E3-E6) use
// this model with lognormal fading; tests calibrate it against the full
// waveform simulator at short range.
//
// Only TL depends on range. The constructor evaluates TS_mod, the in-band
// noise and the absorption coefficient once, so `evaluate` costs a log10, a
// multiply, the sums and the BER curve; the cached terms are the values the
// per-call expressions produced, so every output is bit-identical to
// evaluating them in place.
#pragma once

#include <cstddef>

#include "channel/absorption.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/scenario.hpp"

namespace vab::sim {

struct LinkBudgetResult {
  common::Db tl_one_way_db{0.0};
  common::Db received_at_node_db{0.0};   ///< carrier SPL at the node
  common::Db modulated_return_db{0.0};   ///< modulated-sideband SPL back at reader
  common::Db noise_in_band_db{0.0};      ///< noise level in the chip bandwidth
  common::SnrDb snr_chip_db{0.0};
  double ber = 0.0;
};

class LinkBudget {
 public:
  /// Throws std::invalid_argument if the scenario's carrier or chip rate is
  /// not positive (the cached absorption and noise terms need both).
  explicit LinkBudget(Scenario scenario);

  /// Deterministic evaluation at `range` with an optional fading draw
  /// (applied to the round-trip signal).
  LinkBudgetResult evaluate(common::Meters range,
                            common::Db fading = common::Db{0.0}) const;

  /// Carrier SPL at the node (for the energy-harvesting budget).
  common::Db carrier_spl_at_node(common::Meters range) const;

  /// Modulation amplitude of the node's array toward the reader (linear,
  /// relative to an ideal element).
  double node_modulation_amplitude() const;

  struct BerStats {
    std::size_t bits = 0;
    std::size_t errors = 0;
    double mean_snr_db = 0.0;
    double ber() const {
      return bits ? static_cast<double>(errors) / static_cast<double>(bits) : 0.0;
    }
  };

  /// Raw outcome of one fading packet draw; folded serially in global trial
  /// order by `fold_ber_trials` so the aggregate is invariant to thread
  /// count and campaign shard topology.
  struct BerTrialOutcome {
    std::size_t errors = 0;
    double snr_db = 0.0;
  };

  /// Runs global trial `t` (drawing from `rng.child(t)`; the parent stream
  /// is never advanced).
  BerTrialOutcome monte_carlo_trial(common::Meters range, std::size_t bits_per_trial,
                                    const common::Rng& rng, std::size_t t) const;

  /// Serial trial-order fold — the one aggregation behind `monte_carlo`
  /// and the campaign merge.
  static BerStats fold_ber_trials(const BerTrialOutcome* slots, std::size_t trials,
                                  std::size_t bits_per_trial);

  /// Monte-Carlo over fading: `trials` packets of `bits_per_trial` bits,
  /// drawing lognormal shadowing per packet and binomial bit errors.
  /// Trials fan out over the parallel engine; packet t draws from
  /// `rng.child(t)` (the parent stream is never advanced) and the reduction
  /// is thread-count-invariant.
  BerStats monte_carlo(common::Meters range, std::size_t trials,
                       std::size_t bits_per_trial, common::Rng& rng) const;

  /// Largest range where the fading-averaged BER stays below `target_ber`,
  /// found by bisection over [1 m, max_range].
  common::Meters max_range(double target_ber, std::size_t trials, common::Rng& rng,
                           common::Meters max_range = common::Meters{2000.0}) const;

  const Scenario& scenario() const { return scenario_; }

 private:
  /// One-way TL = spreading + absorption at `range`.
  common::Db tl_one_way(common::Meters range) const;

  Scenario scenario_;
  vanatta::VanAttaArray array_;
  channel::Absorption absorption_;
  common::Db noise_in_band_;
  common::Db ts_mod_;
};

}  // namespace vab::sim
