// Per-layer probes for traced runs. Each probe calls one module's public
// functions on inputs drawn from the workload and times the calls with the
// benchmark's own spans; nothing here changes what the library computes.
//
//  - probe_trials: sim/channel/phy. Runs WaveformSimulator::run_trial as
//    the library does (with the in-program profiler recording), then the
//    same trial again as a replica assembled from the channel/phy/dsp
//    public functions, with a span around each call. The replica draws the
//    same random streams in the same order, so its outcome must equal the
//    real trial's; the match ratio says whether its layer times still
//    describe the program.
//  - probe_dsp: dsp kernels at the sizes those trials used.
//  - probe_net: the fleet transport's per-poll cost under both fidelities,
//    the MAC/ARQ cost alone, and the link budget, on links of a layout.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// One waveform trial's inputs, drawn as sim::run_waveform_trial draws
/// them: the simulator and the payload both use `rng`.
struct TrialCase {
  vab::sim::Scenario scenario;
  std::size_t payload_bits = 64;
  vab::common::Rng rng;
  /// Keep this trial's received passband as a dsp probe input.
  bool capture_dsp = false;
};

/// A received passband and the PHY that decodes it.
struct DspInput {
  vab::phy::PhyConfig phy;
  vab::rvec passband;
};

struct TrialProbe {
  std::vector<double> trial_ms;  ///< real run_trial, per call
  double simulator_setup_ms = 0.0;
  double trial_mean_ms = 0.0;
  // Replica layer times, means per trial.
  double propagate_ms = 0.0;  ///< forward + return + blast channels
  double noise_ms = 0.0;
  double demodulate_ms = 0.0;  ///< whole ReaderDemodulator::demodulate
  double baseband_ms = 0.0;    ///< separate to_baseband call on the same capture
  double fec_ms = 0.0;         ///< FrameCodec encode + decode
  std::size_t attempts = 0;
  std::size_t synced = 0;
  std::size_t frames_ok = 0;
  std::size_t replica_matches = 0;
  // In-program profiler, per call, from the real trials.
  double prof_noise_ms = 0.0;     ///< wave.noise self time
  double prof_baseband_ms = 0.0;  ///< demod.baseband total
  double prof_demod_ms = 0.0;     ///< wave.demod total minus demod.baseband total
  std::uint64_t prof_dropped = 0;
  std::vector<DspInput> dsp_inputs;
};

/// Runs every case at one thread (the caller pins the engine). Expects the
/// in-program profiler to be enabled; clears its span buffers first.
TrialProbe probe_trials(const std::vector<TrialCase>& cases, Tracer& tracer);

struct DspProbe {
  double fft_us = 0.0;
  double fir_decimate_us = 0.0;
  double correlate_us = 0.0;
  double downconvert_us = 0.0;
  std::string sizes;  ///< human-readable list of the sizes probed
};

/// Median per-call kernel times per input, averaged over the inputs.
DspProbe probe_dsp(const std::vector<DspInput>& inputs, Tracer& tracer);

/// Links of a fleet layout: nearest-reader ranges of the first `max_links`
/// reachable nodes, in node-id order.
std::vector<double> layout_link_ranges(const vab::sim::fleet::FleetConfig& cfg,
                                       const vab::sim::fleet::FleetLayout& layout,
                                       std::size_t max_links);

struct NetProbe {
  double poll_budget_us = 0.0;
  double poll_waveform_ms = 0.0;
  double inventory_us_per_poll = 0.0;
  double evaluate_ns = 0.0;
};

/// FleetLinkTransport::uplink_delivered per call under budget-only and
/// waveform-only fidelity, net::run_inventory per poll over a window-sized
/// population with the default i.i.d. transport, and LinkBudget::evaluate
/// per call, all on `ranges` (at most one address window).
NetProbe probe_net(const vab::sim::fleet::FleetConfig& cfg,
                   const std::vector<double>& ranges, const vab::common::Rng& rng,
                   Tracer& tracer);

}  // namespace perfbench
