#include "sim/montecarlo.hpp"

#include "obs/obs.hpp"
#include "sim/campaign.hpp"

namespace vab::sim {

WaveformStats fold_waveform_trials(const WaveformTrialOutcome* slots,
                                   std::size_t n_trials, std::size_t payload_bits) {
  VAB_STAGE("sim.accumulate");
  WaveformStats stats;
  stats.trials = n_trials;
  for (std::size_t t = 0; t < n_trials; ++t) {
    const WaveformTrialOutcome& s = slots[t];
    stats.total_bits += payload_bits;
    stats.bit_errors += s.bit_errors;
    if (s.sync_found) {
      ++stats.frames_synced;
      stats.mean_snr_db += s.snr_db;
      stats.mean_corr_peak += s.corr_peak;
      stats.mean_sic_suppression_db += s.sic_suppression_db;
    }
    if (s.frame_ok) ++stats.frames_ok;
  }
  if (stats.frames_synced > 0) {
    const auto n = static_cast<double>(stats.frames_synced);
    stats.mean_snr_db /= n;
    stats.mean_corr_peak /= n;
    stats.mean_sic_suppression_db /= n;
  }
  return stats;
}

WaveformTrialOutcome run_waveform_trial(const WaveformSetup& setup,
                                        std::size_t payload_bits,
                                        const common::Rng& rng, std::size_t t) {
  static const obs::Counter trials = obs::counter("sim.trials");
  trials.inc();
  common::Rng trial_rng = rng.child(t);
  WaveformSimulator sim(setup, trial_rng);
  const bitvec payload = trial_rng.random_bits(payload_bits);
  const auto res = sim.run_trial(payload);
  WaveformTrialOutcome s;
  s.bit_errors = res.bit_errors;
  s.sync_found = res.demod.sync_found;
  s.frame_ok = res.frame_ok;
  s.snr_db = res.demod.snr_db;
  s.corr_peak = res.demod.corr_peak;
  s.sic_suppression_db = res.demod.sic_suppression_db;
  return s;
}

std::vector<SweepPoint> ber_vs_range_sweep(const Scenario& scenario, const rvec& ranges,
                                           std::size_t trials, std::size_t bits_per_trial,
                                           common::Rng& rng) {
  const LinkBudget budget(scenario);
  std::vector<SweepPoint> out;
  out.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    VAB_SPAN("sim.sweep_point");
    common::Rng point_rng = rng.child(i);
    // monte_carlo fans its trials out over the pool internally.
    const auto stats =
        budget.monte_carlo(common::Meters{ranges[i]}, trials, bits_per_trial, point_rng);
    SweepPoint p;
    p.range_m = ranges[i];
    p.ber = stats.ber();
    p.snr_db = stats.mean_snr_db;
    p.bits = stats.bits;
    p.errors = stats.errors;
    out.push_back(p);
  }
  return out;
}

std::vector<WaveformStats> run_waveform_batch(const std::vector<WaveformJob>& jobs) {
  VAB_STAGE("sim.waveform_batch");
  return merge_waveform_batch_campaign({run_waveform_batch_shard(jobs, CampaignConfig{})},
                                       jobs);
}

}  // namespace vab::sim
