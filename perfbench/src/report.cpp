#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "workloads.hpp"

namespace perfbench {

void add_layer_metrics(Result& res, const LayerReport& r) {
  res.add("sim.trial_ms_p50", r.sim_trial_ms_p50, "ms");
  res.add("sim.trial_ms_tail", r.sim_trial_ms_tail, "ms");
  res.add("sim.simulator_setup_ms", r.sim_simulator_setup_ms, "ms");
  res.add("sim.accounted_share", r.sim_accounted_share, "ratio");
  res.add("sim.replica_match", r.sim_replica_match, "ratio");
  res.add("channel.propagate_ms", r.channel_propagate_ms, "ms");
  res.add("channel.noise_ms", r.channel_noise_ms, "ms");
  res.add("channel.noise_share", r.channel_noise_share, "ratio");
  res.add("phy.baseband_ms", r.phy_baseband_ms, "ms");
  res.add("phy.demod_ms", r.phy_demod_ms, "ms");
  res.add("phy.fec_ms", r.phy_fec_ms, "ms");
  res.add("phy.sync_ratio", r.phy_sync_ratio, "ratio");
  res.add("phy.frame_ok_ratio", r.phy_frame_ok_ratio, "ratio");
  res.add("dsp.fft_us", r.dsp_fft_us, "us");
  res.add("dsp.fir_decimate_us", r.dsp_fir_decimate_us, "us");
  res.add("dsp.correlate_us", r.dsp_correlate_us, "us");
  res.add("dsp.downconvert_us", r.dsp_downconvert_us, "us");
  res.add("common.parallel_efficiency", r.common_parallel_efficiency, "ratio");
  res.add("common.worker_warmup_s", r.common_worker_warmup_s, "s");
  res.add("campaign.resume_ms", r.campaign_resume_ms, "ms");
  res.add("campaign.merge_ms", r.campaign_merge_ms, "ms");
  res.add("campaign.checkpoint_bytes", r.campaign_checkpoint_bytes, "bytes");
  res.add("campaign.resumed_ratio", r.campaign_resumed_ratio, "ratio");
  res.add("fleet.layout_ms", r.fleet_layout_ms, "ms");
  res.add("fleet.grid_build_ms", r.fleet_grid_build_ms, "ms");
  res.add("fleet.grid_query_us", r.fleet_grid_query_us, "us");
  res.add("fleet.run_s", r.fleet_run_s, "s");
  res.add("fleet.polls", r.fleet_polls, "count");
  res.add("fleet.waveform_polls", r.fleet_waveform_polls, "count");
  res.add("fleet.events", r.fleet_events, "count");
  res.add("fleet.windows", r.fleet_windows, "count");
  res.add("fleet.waveform_poll_share", r.fleet_waveform_poll_share, "ratio");
  res.add("fleet.cap_hit_ratio", r.fleet_cap_hit_ratio, "ratio");
  res.add("fleet.delivered_per_poll", r.fleet_delivered_per_poll, "ratio");
  res.add("fleet.accounted_share", r.fleet_accounted_share, "ratio");
  res.add("net.poll_budget_us", r.net_poll_budget_us, "us");
  res.add("net.poll_waveform_ms", r.net_poll_waveform_ms, "ms");
  res.add("net.poll_cost_ratio", r.net_poll_cost_ratio, "ratio");
  res.add("net.inventory_us_per_poll", r.net_inventory_us_per_poll, "us");
  res.add("net.retries_per_delivered", r.net_retries_per_delivered, "ratio");
  res.add("linkbudget.evaluate_ns", r.linkbudget_evaluate_ns, "ns");
  res.add("obs.trace_overhead", r.obs_trace_overhead, "ratio");
  res.add("obs.profile_noise_ms", r.obs_profile_noise_ms, "ms");
  res.add("obs.profile_baseband_ms", r.obs_profile_baseband_ms, "ms");
  res.add("obs.profile_demod_ms", r.obs_profile_demod_ms, "ms");
  res.add("obs.profile_fleet_run_s", r.obs_profile_fleet_run_s, "s");
  res.add("obs.profile_gap_max", r.obs_profile_gap_max, "ratio");
}

void fill_trial_layers(LayerReport& lr, const TrialProbe& tp, const DspProbe& dp) {
  std::printf("dsp sizes: %s\n", dp.sizes.c_str());
  lr.sim_trial_ms_p50 = median(tp.trial_ms);
  if (const auto tail = tail_percentile(tp.trial_ms)) {
    lr.sim_trial_ms_tail = tail->value;
    lr.sim_trial_tail_pct = tail->percentile;
  }
  std::printf("sim.trial_ms: p50 %.4f, tail p%g %.4f, n=%zu\n", lr.sim_trial_ms_p50,
              lr.sim_trial_tail_pct, lr.sim_trial_ms_tail, tp.trial_ms.size());
  lr.sim_simulator_setup_ms = tp.simulator_setup_ms;
  lr.sim_accounted_share =
      ratio(tp.propagate_ms + tp.noise_ms + tp.demodulate_ms + tp.fec_ms, tp.trial_mean_ms);
  const auto attempts = static_cast<double>(tp.attempts);
  lr.sim_replica_match = ratio(static_cast<double>(tp.replica_matches), attempts);
  lr.channel_propagate_ms = tp.propagate_ms;
  lr.channel_noise_ms = tp.noise_ms;
  lr.channel_noise_share = ratio(tp.noise_ms, tp.trial_mean_ms);
  lr.phy_baseband_ms = tp.baseband_ms;
  lr.phy_demod_ms = tp.demodulate_ms - tp.baseband_ms;
  lr.phy_fec_ms = tp.fec_ms;
  lr.phy_sync_ratio = ratio(static_cast<double>(tp.synced), attempts);
  lr.phy_frame_ok_ratio = ratio(static_cast<double>(tp.frames_ok), attempts);
  lr.dsp_fft_us = dp.fft_us;
  lr.dsp_fir_decimate_us = dp.fir_decimate_us;
  lr.dsp_correlate_us = dp.correlate_us;
  lr.dsp_downconvert_us = dp.downconvert_us;
  lr.obs_profile_noise_ms = tp.prof_noise_ms;
  lr.obs_profile_baseband_ms = tp.prof_baseband_ms;
  lr.obs_profile_demod_ms = tp.prof_demod_ms;
  lr.obs_profile_gap_max = std::max(
      {lr.obs_profile_gap_max,
       cross_check("wave.noise vs channel.noise_ms", tp.prof_noise_ms, tp.noise_ms),
       cross_check("demod.baseband vs phy.baseband_ms", tp.prof_baseband_ms, tp.baseband_ms),
       cross_check("wave.demod - demod.baseband vs phy.demod_ms", tp.prof_demod_ms,
                   lr.phy_demod_ms)});
  if (tp.prof_dropped > 0)
    std::printf("profiler dropped %llu spans\n",
                static_cast<unsigned long long>(tp.prof_dropped));
}

double cross_check(const std::string& what, double program, double benchmark) {
  const double gap = benchmark > 0.0 ? std::abs(program - benchmark) / benchmark : 0.0;
  char line[256];
  std::snprintf(line, sizeof line,
                "cross-check %s: program %.6g vs benchmark %.6g, gap %.1f%% %s", what.c_str(),
                program, benchmark, 100.0 * gap,
                gap > kCrossCheckTolerance ? "GAP above tolerance" : "within tolerance");
  std::cout << line << "\n";
  return gap;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

ScratchDir::ScratchDir(const std::string& base, const std::string& name)
    : path_(base + "/" + name + "-" + std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
