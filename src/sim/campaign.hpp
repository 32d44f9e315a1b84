// Distributed, resumable Monte-Carlo campaigns.
//
// A campaign splits a trial space [0, n_trials) into `count` contiguous
// shards (common::split_range) that can run in separate processes. Shard i
// computes the trials of its range with the same per-trial entry points the
// in-process runners use — trial t always draws from `rng.child(t)` with the
// *global* index t, and the parent stream is never advanced — so the shard
// topology cannot affect any trial's stream. Each shard persists its raw
// per-trial outcomes (never folded aggregates: floating-point folds must not
// be re-associated) to a checkpoint file; `run_*_shard` returns the
// checkpointed outcomes instead of recomputing when a valid file exists, so
// an interrupted sweep resumes from its completed shards. `merge_*_campaign`
// places every outcome by global trial index and re-runs the same serial
// trial-order fold the single-process runner uses — the merged result is
// bit-identical to an uninterrupted run at any thread count.
//
// Checkpoint files are plain text: a header binding (kind, campaign key,
// shard, trial range), an informational copy of the writer's run manifest,
// one record per trial with doubles in %a hex-float form (exact round-trip),
// and a trailing FNV-1a digest over the record lines. Files are written to a
// temp name and renamed, and any validation failure (wrong key, truncation,
// corruption) silently falls back to recomputation.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/linkbudget.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "vanatta/mismatch.hpp"

namespace vab::sim {

/// Which contiguous piece of the trial space this process owns.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parses "i/n" (e.g. "2/8", the bench `shard=` config key): two decimal
  /// digit strings (no sign, no spaces) with n >= 1 and i < n; throws
  /// std::invalid_argument otherwise.
  static ShardSpec parse(const std::string& text);

  /// Global [begin, end) of this shard over `n_trials` trials.
  std::pair<std::size_t, std::size_t> range(std::size_t n_trials) const {
    return common::split_range(n_trials, index, count);
  }

  std::string str() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }
};

/// Records the shard topology in the obs run manifest ("shard",
/// "shard_index", "shard_count") so metrics snapshots and BENCH lines
/// identify which shard produced them.
void record_shard_manifest(const ShardSpec& shard);

struct CampaignConfig {
  /// Checkpoint directory; empty disables checkpointing (compute-only).
  std::string dir;
  /// Campaign identity: every parameter that determines trial outcomes
  /// (scenario/config, seed, trial count, payload size) folded into one
  /// string by the caller. A checkpoint written under a different key is
  /// rejected at read time.
  std::string key;
  ShardSpec shard;
};

/// Path of the checkpoint file `run_*_shard` reads/writes for `kind`
/// ("waveform", "batch", "linkbudget", "mismatch") under `cfg`.
std::string checkpoint_path(const CampaignConfig& cfg, const std::string& kind);

template <typename Outcome>
struct ShardResult {
  ShardSpec shard;
  std::size_t begin = 0;  ///< global index of outcomes[0]
  std::size_t end = 0;    ///< one past the last global index
  std::vector<Outcome> outcomes;
  bool from_checkpoint = false;  ///< true when loaded instead of computed
};

using WaveformShardResult = ShardResult<WaveformTrialOutcome>;
using BerShardResult = ShardResult<LinkBudget::BerTrialOutcome>;
using MismatchShardResult = ShardResult<double>;

/// Computes (or resumes from checkpoint) this shard of an n_trials waveform
/// campaign; trials fan out over the parallel engine within the shard.
WaveformShardResult run_waveform_shard(const Scenario& scenario,
                                       std::size_t n_trials,
                                       std::size_t payload_bits,
                                       const common::Rng& rng,
                                       const CampaignConfig& cfg);

/// Serial trial-order fold over all shards of the campaign. Throws
/// std::runtime_error unless the shards cover [0, n_trials) exactly once.
WaveformStats merge_waveform_campaign(
    const std::vector<WaveformShardResult>& shards, std::size_t n_trials,
    std::size_t payload_bits);

/// Shard of a run_waveform_batch fan-out: the flattened (job, trial) index
/// space is sharded globally, so shards stay balanced even when individual
/// jobs have few trials.
WaveformShardResult run_waveform_batch_shard(const std::vector<WaveformJob>& jobs,
                                             const CampaignConfig& cfg);

/// Per-job stats, bit-identical to run_waveform_batch(jobs).
std::vector<WaveformStats> merge_waveform_batch_campaign(
    const std::vector<WaveformShardResult>& shards,
    const std::vector<WaveformJob>& jobs);

/// Shard of LinkBudget::monte_carlo at one range.
BerShardResult run_linkbudget_shard(const LinkBudget& budget, common::Meters range,
                                    std::size_t trials, std::size_t bits_per_trial,
                                    const common::Rng& rng,
                                    const CampaignConfig& cfg);

LinkBudget::BerStats merge_linkbudget_campaign(
    const std::vector<BerShardResult>& shards, std::size_t trials,
    std::size_t bits_per_trial);

/// Shard of vanatta::mismatch_monte_carlo.
MismatchShardResult run_mismatch_shard(const vanatta::VanAttaConfig& array_cfg,
                                       double theta_rad, common::Hz f,
                                       double sigma_phase_rad,
                                       common::Db sigma_gain,
                                       std::size_t trials, const common::Rng& rng,
                                       const CampaignConfig& cfg);

vanatta::MismatchResult merge_mismatch_campaign(
    const std::vector<MismatchShardResult>& shards, std::size_t trials);

}  // namespace vab::sim
