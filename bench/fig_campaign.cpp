// CAMPAIGN — distributed/resumable Monte-Carlo driver.
//
// Runs one shard of a trial campaign in this process, checkpointing raw
// per-trial outcomes under dir=, or merges all shards into the final
// statistics. The merged result is bit-identical to a single-process run of
// the same campaign at any thread count — doubles are emitted as %a hex
// floats so two out= files can be compared with cmp(1).
//
// Worked example (waveform campaign split 4 ways, possibly on 4 machines):
//   fig_campaign kind=waveform trials=64 shard=0/4 dir=ckpt   # ... 1/4..3/4
//   fig_campaign kind=waveform trials=64 shard=0/4 dir=ckpt merge=1 out=a.txt
// The merge step loads every completed shard's checkpoint from dir= and
// computes any missing shard in-process, so it also serves as the resume
// path after an interrupted sweep. Compare against the uninterrupted run:
//   fig_campaign kind=waveform trials=64 merge=1 out=b.txt && cmp a.txt b.txt
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "vanatta/mismatch.hpp"

namespace {

using namespace vab;

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void write_out(const common::Config& cfg, const std::vector<std::string>& lines) {
  for (const std::string& l : lines) std::cout << l << "\n";
  const std::string path = cfg.get_string("out", "");
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    for (const std::string& l : lines) std::fprintf(f, "%s\n", l.c_str());
    std::fclose(f);
    std::cout << "wrote " << path << "\n";
  }
}

/// Shard configs for every shard of the campaign (merge mode) or just the
/// one this process owns.
std::vector<sim::CampaignConfig> shard_configs(const sim::CampaignConfig& base,
                                               bool merge) {
  std::vector<sim::CampaignConfig> out;
  if (!merge) {
    out.push_back(base);
    return out;
  }
  for (std::size_t i = 0; i < base.shard.count; ++i) {
    sim::CampaignConfig c = base;
    c.shard.index = i;
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("CAMPAIGN", "Distributed resumable Monte-Carlo",
                "sharded trials merge bit-identical to a single-process run");

  const std::string kind = cfg.get_string("kind", "waveform");
  const auto trials = cfg.get_count("trials", 64);
  const auto bits = cfg.get_count("bits", 64);
  const std::uint64_t seed = cfg.get_count("seed", 1);
  const bool merge = cfg.get_bool("merge", false);
  bench::init_threads(cfg);

  sim::CampaignConfig base;
  base.dir = cfg.get_string("dir", "");
  base.shard = sim::ShardSpec::parse(cfg.get_string("shard", "0/1"));
  base.key = kind + ":trials=" + std::to_string(trials) +
             ":bits=" + std::to_string(bits) + ":seed=" + std::to_string(seed);
  sim::record_shard_manifest(base.shard);

  const common::Rng rng(seed);
  const auto shard_cfgs = shard_configs(base, merge);
  bench::Stopwatch sw;
  std::vector<std::string> lines;

  if (kind == "waveform") {
    sim::Scenario scenario = sim::vab_river_scenario();
    scenario.range_m = cfg.get_double("range", 100.0);
    std::vector<sim::WaveformShardResult> shards;
    for (const auto& c : shard_cfgs)
      shards.push_back(sim::run_waveform_shard(scenario, trials, bits, rng, c));
    if (merge) {
      const auto stats = sim::merge_waveform_campaign(shards, trials, bits);
      lines = {"trials=" + std::to_string(stats.trials),
               "frames_synced=" + std::to_string(stats.frames_synced),
               "frames_ok=" + std::to_string(stats.frames_ok),
               "total_bits=" + std::to_string(stats.total_bits),
               "bit_errors=" + std::to_string(stats.bit_errors),
               "mean_snr_db=" + fmt(stats.mean_snr_db),
               "mean_corr_peak=" + fmt(stats.mean_corr_peak),
               "mean_sic_suppression_db=" + fmt(stats.mean_sic_suppression_db)};
    }
  } else if (kind == "linkbudget") {
    const sim::LinkBudget budget(sim::vab_river_scenario());
    const double range_m = cfg.get_double("range", 200.0);
    std::vector<sim::BerShardResult> shards;
    for (const auto& c : shard_cfgs)
      shards.push_back(sim::run_linkbudget_shard(budget, common::Meters{range_m},
                                                 trials, bits, rng, c));
    if (merge) {
      const auto stats = sim::merge_linkbudget_campaign(shards, trials, bits);
      lines = {"bits=" + std::to_string(stats.bits),
               "errors=" + std::to_string(stats.errors),
               "mean_snr_db=" + fmt(stats.mean_snr_db)};
    }
  } else if (kind == "mismatch") {
    vanatta::VanAttaConfig ac;
    ac.n_elements = cfg.get_count("elements", 8);
    const double sigma_phase = cfg.get_double("sigma_phase_rad", 0.2);
    const double sigma_gain = cfg.get_double("sigma_gain_db", 1.0);
    std::vector<sim::MismatchShardResult> shards;
    for (const auto& c : shard_cfgs)
      shards.push_back(sim::run_mismatch_shard(ac, 0.0, common::Hz{18500.0},
                                               sigma_phase,
                                               common::Db{sigma_gain}, trials,
                                               rng, c));
    if (merge) {
      const auto r = sim::merge_mismatch_campaign(shards, trials);
      lines = {"mean_loss_db=" + fmt(r.mean_loss_db),
               "p95_loss_db=" + fmt(r.p95_loss_db),
               "worst_loss_db=" + fmt(r.worst_loss_db)};
    }
  } else {
    std::cerr << "unknown kind=" << kind
              << " (expected waveform|linkbudget|mismatch)\n";
    return 2;
  }

  if (merge) {
    write_out(cfg, lines);
  } else {
    std::cout << "shard " << base.shard.str() << " done ("
              << (base.dir.empty() ? "no checkpoint" : "checkpointed to " + base.dir)
              << ")\n";
  }
  bench::emit_timing("CAMPAIGN", kind + (merge ? ".merge" : ".shard"), sw.seconds(),
                     trials);
  return 0;
}
