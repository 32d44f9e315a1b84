// Trial orchestration: range sweeps on the analytic link budget and batch
// waveform trials, with seeded reproducibility.
//
// All trial loops fan out over the common::parallel_for engine. Every trial
// draws from its own `rng.child(trial_index)` stream and deposits its raw
// outcome into a per-trial slot; aggregation then folds the slots serially
// in trial order. Results are therefore bit-identical for any thread count
// (including 1) — see tests/test_parallel_determinism.cpp.
//
// Waveform trials have one path: a WaveformJob batch, computed by the
// campaign shard runner (sim/campaign.hpp). `run_waveform_batch` is the
// unsharded, checkpoint-free campaign, and a single scenario is a one-job
// batch.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace vab::sim {

struct SweepPoint {
  double range_m = 0.0;
  double ber = 0.0;
  double snr_db = 0.0;
  std::size_t bits = 0;
  std::size_t errors = 0;
};

/// BER vs range using the link budget with fading Monte-Carlo. Point i
/// derives its trial streams from `rng.child(i)`.
std::vector<SweepPoint> ber_vs_range_sweep(const Scenario& scenario, const rvec& ranges,
                                           std::size_t trials, std::size_t bits_per_trial,
                                           common::Rng& rng);

struct WaveformStats {
  std::size_t trials = 0;
  std::size_t frames_synced = 0;
  std::size_t frames_ok = 0;
  std::size_t total_bits = 0;
  std::size_t bit_errors = 0;
  double mean_snr_db = 0.0;
  double mean_corr_peak = 0.0;
  double mean_sic_suppression_db = 0.0;
  double ber() const {
    return total_bits ? static_cast<double>(bit_errors) / static_cast<double>(total_bits)
                      : 0.0;
  }
};

/// Raw outcome of one waveform trial. Slots are written in parallel (or on
/// different campaign shards) and folded serially in global trial order by
/// `fold_waveform_trials`, so the aggregate is invariant to both thread
/// count and shard topology.
struct WaveformTrialOutcome {
  std::size_t bit_errors = 0;
  bool sync_found = false;
  bool frame_ok = false;
  double snr_db = 0.0;
  double corr_peak = 0.0;
  double sic_suppression_db = 0.0;
};

/// Runs global trial `t` (drawing from `rng.child(t)`; the parent stream is
/// never advanced, so any process holding the master seed computes the same
/// outcome for the same t).
WaveformTrialOutcome run_waveform_trial(const Scenario& scenario,
                                        std::size_t payload_bits,
                                        const common::Rng& rng, std::size_t t);

/// Serial trial-order fold of raw outcomes — the one aggregation
/// implementation, run by the campaign merge.
WaveformStats fold_waveform_trials(const WaveformTrialOutcome* slots,
                                   std::size_t n_trials, std::size_t payload_bits);

/// One batch of waveform trials: a scenario, a trial count and the master
/// stream the per-trial children are derived from.
struct WaveformJob {
  Scenario scenario;
  std::size_t trials = 0;
  std::size_t payload_bits = 0;
  common::Rng rng;  ///< trial t of this job uses rng.child(t)
};

/// Runs several waveform batches as one flat parallel fan-out over every
/// (job, trial) pair — full-chain trials are seconds-scale, so cross-batch
/// fan-out is what keeps all cores busy when each batch has few trials.
/// This is the one-shard campaign without a checkpoint directory:
/// `merge_waveform_batch_campaign({run_waveform_batch_shard(jobs, {})}, jobs)`.
/// Result j depends only on jobs[j], so it equals the one-job batch
/// {jobs[j]} at any thread count.
std::vector<WaveformStats> run_waveform_batch(const std::vector<WaveformJob>& jobs);

}  // namespace vab::sim
