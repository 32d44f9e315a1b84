// wave_campaign: a four-job mix of 64-bit-payload waveform trials run as a
// sharded, checkpointed campaign. One round = compute pass over every shard,
// merge, resume pass over the same checkpoint directory, merge again.
// Untraced runs repeat a fixed set of rounds, each with its own job streams,
// in closed-loop passes until the time is up and rate each by its fastest
// repeat.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "sim/campaign.hpp"
#include "sim/montecarlo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace common = vab::common;
namespace sim = vab::sim;

constexpr std::size_t kPayloadBits = 64;
constexpr std::size_t kTrialsPerJob = 24;  ///< per job per round
constexpr std::size_t kShards = 4;
/// Distinct rounds of an untraced run, each repeated until the time is up
/// (~1.1 s per round at 1 thread: ~3 runs each in 30 s). Round 0 feeds the
/// fingerprint.
constexpr std::size_t kRounds = 8;
/// Fewest threads of the parallel-efficiency probe, so that it measures the
/// engine also when the timed runs use one thread.
constexpr unsigned kMinProbeThreads = 2;
constexpr std::size_t kProbeTrialsPerJob = 25;
constexpr std::uint64_t kWarmupStream = 0xFFFF0001ULL;

struct JobSpec {
  const char* name;
  sim::Scenario scenario;
};

std::vector<JobSpec> job_specs() {
  sim::Scenario river100 = sim::vab_river_scenario();
  river100.range_m = 100.0;
  sim::Scenario river300 = sim::vab_river_scenario();
  river300.range_m = 300.0;
  sim::Scenario ocean100 = sim::vab_ocean_scenario();
  ocean100.range_m = 100.0;
  sim::Scenario river200_fec = sim::vab_river_scenario();
  river200_fec.range_m = 200.0;
  river200_fec.fec.enable = true;
  return {{"river_100m", river100},
          {"river_300m", river300},
          {"ocean_100m", ocean100},
          {"river_200m_fec", river200_fec}};
}

/// Job j draws its trials from `stream.child(j)`.
std::vector<sim::WaveformJob> make_jobs(const std::vector<JobSpec>& specs,
                                        const common::Rng& stream, std::size_t trials) {
  std::vector<sim::WaveformJob> jobs;
  for (std::size_t j = 0; j < specs.size(); ++j)
    jobs.push_back(sim::WaveformJob{specs[j].scenario, trials, kPayloadBits, stream.child(j)});
  return jobs;
}

std::size_t total_trials(const std::vector<sim::WaveformJob>& jobs) {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.trials;
  return n;
}

struct Round {
  std::vector<sim::WaveformStats> computed;
  std::vector<sim::WaveformStats> resumed;
  std::size_t shards_resumed = 0;
  std::uintmax_t checkpoint_bytes = 0;
  std::size_t trials = 0;
  std::size_t frames_ok = 0;
  double wall_s = 0.0;
};

/// Compute pass, merge, resume pass, merge. Spans go to `tr` when given.
Round run_round(const std::vector<sim::WaveformJob>& jobs, const std::string& dir,
                const std::string& key, Tracer* tr) {
  Round rd;
  const double t0 = now_s();
  std::vector<sim::CampaignConfig> cfgs;
  for (std::size_t i = 0; i < kShards; ++i)
    cfgs.push_back(sim::CampaignConfig{dir, key, sim::ShardSpec{i, kShards}});
  const auto span = [&](const char* name) {
    return tr ? std::optional<Tracer::Scope>(std::in_place, *tr, name) : std::nullopt;
  };

  std::vector<sim::WaveformShardResult> shards;
  for (const auto& cfg : cfgs) {
    const auto s = span("campaign.compute_shard");
    shards.push_back(sim::run_waveform_batch_shard(jobs, cfg));
  }
  {
    const auto s = span("campaign.merge");
    rd.computed = sim::merge_waveform_batch_campaign(shards, jobs);
  }
  shards.clear();
  for (const auto& cfg : cfgs) {
    const auto s = span("campaign.resume_shard");
    shards.push_back(sim::run_waveform_batch_shard(jobs, cfg));
    rd.shards_resumed += shards.back().from_checkpoint ? 1 : 0;
  }
  {
    const auto s = span("campaign.merge");
    rd.resumed = sim::merge_waveform_batch_campaign(shards, jobs);
  }
  rd.wall_s = now_s() - t0;
  for (const auto& cfg : cfgs) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(sim::checkpoint_path(cfg, "batch"), ec);
    if (!ec) rd.checkpoint_bytes += size;
  }
  std::filesystem::remove_all(dir);
  return rd;
}

/// Round `r` (job streams Rng(seed).child(r)) with its output checks and
/// error accounting; nullopt when the round threw.
std::optional<Round> checked_round(const Options& o, const std::vector<JobSpec>& specs,
                                   const std::string& dir, std::size_t r, Result& res,
                                   Tracer* tr) {
  const auto jobs = make_jobs(specs, common::Rng(o.seed).child(r), kTrialsPerJob);
  const std::size_t trials = total_trials(jobs);
  res.attempted += trials + kShards;  // trials plus shard resumes
  if (tr) tr->set_op(r);
  Round rd;
  try {
    rd = run_round(jobs, dir + "/round-" + std::to_string(r),
                   "wave_campaign seed=" + std::to_string(o.seed) + " round=" + std::to_string(r),
                   tr);
  } catch (const std::exception& e) {
    report_failure("round " + std::to_string(r) + ": " + e.what());
    res.failed += trials + kShards;
    return std::nullopt;
  }
  rd.trials = trials;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::string why = check_trial_stats(rd.computed[j], kPayloadBits);
    if (why.empty() && !stats_identical(rd.computed[j], rd.resumed[j]))
      why = "resume-pass merge differs from compute-pass merge";
    if (!why.empty()) {
      report_failure("round " + std::to_string(r) + " job " + specs[j].name + ": " + why);
      res.failed += jobs[j].trials;
    }
    rd.frames_ok += rd.computed[j].frames_ok;
  }
  return rd;
}

bool all_identical(const std::vector<sim::WaveformStats>& a,
                   const std::vector<sim::WaveformStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (!stats_identical(a[j], b[j])) return false;
  return true;
}

void print_fingerprint(const std::vector<JobSpec>& specs,
                       const std::vector<sim::WaveformStats>& stats) {
  Fingerprint fp;
  fold_stats(fp, stats);
  for (std::size_t j = 0; j < stats.size(); ++j) {
    const auto& s = stats[j];
    std::printf("fingerprint job %s: trials=%zu frames_synced=%zu frames_ok=%zu "
                "bit_errors=%zu mean_snr_db=%a\n",
                specs[j].name, s.trials, s.frames_synced, s.frames_ok, s.bit_errors,
                s.mean_snr_db);
  }
  std::printf("fingerprint wave_campaign round 0: %s\n", fp.hex().c_str());
}

/// T-thread vs 1-thread throughput on the same mix slice; the two runs must
/// also agree bit for bit (the determinism contract).
double parallel_efficiency(const std::vector<sim::WaveformJob>& jobs, unsigned threads,
                           Result& res, Tracer& tr) {
  // Alternate T, 1, T, 1 threads so slow drift in machine speed hits both.
  double t_par = 0.0, t_one = 0.0;
  std::vector<sim::WaveformStats> par, one;
  common::set_thread_count(threads);
  (void)sim::run_waveform_batch(jobs);  // untimed: warms workers the timed runs may not use
  for (int rep = 0; rep < 2; ++rep) {
    {
      Tracer::Scope s(tr, "common.batch_parallel");
      par = sim::run_waveform_batch(jobs);
      t_par += s.seconds();
    }
    common::set_thread_count(1);
    {
      Tracer::Scope s(tr, "common.batch_serial");
      one = sim::run_waveform_batch(jobs);
      t_one += s.seconds();
    }
    common::set_thread_count(threads);
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!stats_identical(par[j], one[j])) {
      report_failure("job " + std::to_string(j) + ": " + std::to_string(threads) +
                     "-thread batch differs from the 1-thread batch");
      res.checks_ok = false;
    }
  }
  return t_one / (static_cast<double>(threads) * t_par);
}

}  // namespace

Result run_wave_campaign(const Options& o) {
  Result res;
  const double t_start = now_s();
  common::set_thread_count(o.threads);
  const std::vector<JobSpec> specs = job_specs();
  const ScratchDir scratch(o.workdir, "wave_campaign");
  // Warm-up: a few trials of every job per engine thread fill the FFT plan
  // caches and workspaces of every thread.
  const auto warm_jobs = make_jobs(specs, common::Rng(o.seed).child(kWarmupStream), o.threads);
  const double t_cold = now_s();
  (void)sim::run_waveform_batch(warm_jobs);
  const double cold_s = now_s() - t_cold;
  res.setup_s = now_s() - t_start;
  if (o.setup_only) return res;

  if (!o.trace) {
    // Rounds 0..n-1 repeat in passes; every repeat must reproduce the first
    // pass's merged stats.
    BestOfPasses best(kRounds);
    std::vector<std::vector<sim::WaveformStats>> first(kRounds);
    std::vector<double> trials(kRounds), frames_ok(kRounds);
    std::size_t trials_run = 0;
    const double t0 = now_s();
    for (std::size_t i = 0; best.more(i, t0, o.seconds); ++i) {
      const std::size_t r = i % kRounds;
      auto rd = checked_round(o, specs, scratch.path(), r, res, nullptr);
      if (!rd) continue;
      if (first[r].empty()) {
        first[r] = rd->computed;
        trials[r] = static_cast<double>(rd->trials);
        frames_ok[r] = static_cast<double>(rd->frames_ok);
        if (r == 0) print_fingerprint(specs, rd->computed);
      } else if (!all_identical(first[r], rd->computed)) {
        report_failure("round " + std::to_string(r) + ": repeat differs from its first run");
        res.failed += rd->trials;
      }
      best.record(r, rd->wall_s);
      trials_run += rd->trials;
    }
    const auto [lo, hi] = best.repeats();
    std::printf("wave_campaign: %zu rounds of %zu trials (%zu shards), %zu-%zu runs each\n",
                kRounds, kTrialsPerJob * specs.size(), kShards, lo, hi);
    vab::obs::set_manifest("perfbench.rounds", std::to_string(kRounds));
    vab::obs::set_manifest("perfbench.trials", std::to_string(trials_run));
    res.add("trials_per_s", best.median_rate(trials), "1/s");
    // One waveform trial is one uplink poll of the link.
    res.add("polls_per_s", best.median_rate(trials), "1/s");
    res.add("delivered_per_s", best.median_rate(frames_ok), "1/s");
    return res;
  }

  // Traced run. Worker warm-up: the set-up batch on fresh workers minus the
  // same batch again on warm ones.
  LayerReport lr;
  {
    const double t0 = now_s();
    (void)sim::run_waveform_batch(warm_jobs);
    lr.common_worker_warmup_s = cold_s - (now_s() - t0);
  }
  // Each round runs twice, untraced and then traced (benchmark spans plus
  // the in-program profiler); the pair's wall ratio is the tracing overhead.
  Tracer tr;
  vab::obs::enable_profile(o.workdir + "/profile-wave_campaign.json");
  std::vector<double> overhead, bytes;
  std::size_t resumed = 0, traced_rounds = 0;
  const double t0 = now_s();
  for (std::size_t r = 0; r < 2 || now_s() - t0 < 0.5 * o.seconds; ++r) {
    vab::obs::disable_trace();
    const auto plain = checked_round(o, specs, scratch.path(), r, res, nullptr);
    vab::obs::enable_trace("");
    const auto traced = checked_round(o, specs, scratch.path(), r, res, &tr);
    if (!plain || !traced) continue;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!stats_identical(plain->computed[j], traced->computed[j])) {
        report_failure("round " + std::to_string(r) + ": outcome differs with tracing on");
        res.checks_ok = false;
      }
    }
    overhead.push_back(traced->wall_s / plain->wall_s - 1.0);
    resumed += traced->shards_resumed;
    bytes.push_back(static_cast<double>(traced->checkpoint_bytes));
    ++traced_rounds;
  }
  lr.obs_trace_overhead = median(overhead);
  std::vector<double> per_round(traced_rounds, 0.0);
  for (const Tracer::Span& s : tr.spans())
    if (std::string_view(s.name) == "campaign.resume_shard" && s.op < per_round.size())
      per_round[s.op] += (s.t1_s - s.t0_s) * 1e3;
  lr.campaign_resume_ms = median(per_round);
  lr.campaign_merge_ms = median(tr.durations_s("campaign.merge")) * 1e3;
  lr.campaign_checkpoint_bytes = median(bytes);
  lr.campaign_resumed_ratio =
      ratio(static_cast<double>(resumed), static_cast<double>(kShards * traced_rounds));

  const auto round0 = make_jobs(specs, common::Rng(o.seed).child(0), kTrialsPerJob);
  lr.common_parallel_efficiency =
      parallel_efficiency(round0, std::max(kMinProbeThreads, o.threads), res, tr);

  // Layer probes at one thread on the first trials of every round-0 job.
  common::set_thread_count(1);
  std::vector<TrialCase> cases;
  for (const auto& job : round0)
    for (std::size_t t = 0; t < kProbeTrialsPerJob; ++t)
      cases.push_back(TrialCase{job.scenario, kPayloadBits, job.rng.child(t), t == 0});
  const TrialProbe tp = probe_trials(cases, tr);
  fill_trial_layers(lr, tp, probe_dsp(tp.dsp_inputs, tr));
  std::printf("sim.trial_ms p50 by job (1 thread, n=%zu each):", kProbeTrialsPerJob);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const auto first = tp.trial_ms.begin() + static_cast<std::ptrdiff_t>(j * kProbeTrialsPerJob);
    std::printf(" %s %.4f", specs[j].name,
                median(std::vector<double>(first, first + kProbeTrialsPerJob)));
  }
  std::printf("\n");
  common::set_thread_count(o.threads);
  tr.write_json(o.workdir + "/trace-wave_campaign.json");
  add_layer_metrics(res, lr);
  return res;
}

}  // namespace perfbench
