// Output checks and outcome fingerprints. A check that fails counts its
// operations as failed (error accounting); a fingerprint folds every
// simulated statistic so a speed-only change can show that none moved.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/montecarlo.hpp"

namespace perfbench {

/// Trial invariants of one job's folded stats: frames_ok <= frames_synced <=
/// trials, and bit_errors <= total_bits == trials * payload_bits. Returns an
/// empty string when they hold, else what broke.
std::string check_trial_stats(const vab::sim::WaveformStats& s,
                              std::size_t payload_bits);

/// True when every field is bit-identical (doubles compared by bit pattern).
bool stats_identical(const vab::sim::WaveformStats& a,
                     const vab::sim::WaveformStats& b);

/// Fleet invariants of one replicate: assigned + unreachable == nodes,
/// delivered <= assigned, budget + waveform polls == polls, and waveform
/// polls within the per-reader cap (zero under budget-only fidelity).
/// Empty string when they hold.
std::string check_fleet_result(const vab::sim::fleet::FleetResult& r,
                               const vab::sim::fleet::FleetConfig& cfg);

/// Folds every WaveformStats field of every job.
void fold_stats(Fingerprint& fp, const std::vector<vab::sim::WaveformStats>& jobs);

/// Folds the replicate digests plus the exact counters the benchmark prints.
void fold_fleet(Fingerprint& fp, const vab::sim::fleet::FleetResult& r);

}  // namespace perfbench
