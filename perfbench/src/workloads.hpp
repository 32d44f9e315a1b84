// The three benchmark workloads and the per-layer report they share.
//
//  wave_campaign  - sharded, checkpointed waveform campaign over a four-job
//                   mix, then a resume pass and both merges (sim, channel,
//                   phy, dsp, common, sim/campaign).
//  fleet_budget   - serial 100k-node budget-fidelity fleet replicates
//                   (sim/fleet, net, sim/linkbudget; no DSP).
//  fleet_adaptive - serial F2-geometry replicates with adaptive fidelity and
//                   a waveform-poll cap (sim/fleet, net, and the DSP chain
//                   through waveform polls).
#pragma once

#include <string>

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

Result run_wave_campaign(const Options& o);
Result run_fleet_budget(const Options& o);
Result run_fleet_adaptive(const Options& o);

/// Every per-layer metric of a traced run. A layer the workload does not
/// exercise keeps its zeros: a zero time means the layer did no work here.
struct LayerReport {
  double sim_trial_ms_p50 = 0, sim_trial_ms_tail = 0, sim_trial_tail_pct = 0,
         sim_simulator_setup_ms = 0, sim_accounted_share = 0, sim_replica_match = 0;
  double channel_propagate_ms = 0, channel_noise_ms = 0, channel_noise_share = 0;
  double phy_baseband_ms = 0, phy_demod_ms = 0, phy_fec_ms = 0, phy_sync_ratio = 0,
         phy_frame_ok_ratio = 0;
  double dsp_fft_us = 0, dsp_fir_decimate_us = 0, dsp_correlate_us = 0,
         dsp_downconvert_us = 0;
  double common_parallel_efficiency = 0, common_worker_warmup_s = 0;
  double campaign_resume_ms = 0, campaign_merge_ms = 0, campaign_checkpoint_bytes = 0,
         campaign_resumed_ratio = 0;
  double fleet_layout_ms = 0, fleet_grid_build_ms = 0, fleet_grid_query_us = 0,
         fleet_run_s = 0, fleet_polls = 0, fleet_waveform_polls = 0, fleet_events = 0,
         fleet_windows = 0, fleet_waveform_poll_share = 0, fleet_cap_hit_ratio = 0,
         fleet_delivered_per_poll = 0, fleet_accounted_share = 0;
  double net_poll_budget_us = 0, net_poll_waveform_ms = 0, net_poll_cost_ratio = 0,
         net_inventory_us_per_poll = 0, net_retries_per_delivered = 0;
  double linkbudget_evaluate_ns = 0;
  double obs_trace_overhead = 0, obs_profile_noise_ms = 0, obs_profile_baseband_ms = 0,
         obs_profile_demod_ms = 0, obs_profile_fleet_run_s = 0, obs_profile_gap_max = 0;
};

void add_layer_metrics(Result& res, const LayerReport& r);

/// Fills the sim/channel/phy/dsp metrics from a trial probe and its dsp
/// probe, prints the tail and sizes, and cross-checks the trial stages
/// against the in-program profiler (raising obs_profile_gap_max).
void fill_trial_layers(LayerReport& lr, const TrialProbe& tp, const DspProbe& dp);

/// Relative gap |program - benchmark| / benchmark above which the profiler
/// cross-check reports a GAP line.
inline constexpr double kCrossCheckTolerance = 0.15;

/// Prints one profiler cross-check line and returns the relative gap.
double cross_check(const std::string& what, double program, double benchmark);

/// Safe ratio: 0 when the denominator is 0.
double ratio(double num, double den);

/// Creates (and on destruction removes) a fresh scratch directory under
/// `base`, named after the workload and this process.
class ScratchDir {
 public:
  ScratchDir(const std::string& base, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
