#include "checks.hpp"

#include <bit>
#include <cstdint>

namespace perfbench {

using vab::sim::WaveformStats;
using vab::sim::fleet::FidelityMode;
using vab::sim::fleet::FleetConfig;
using vab::sim::fleet::FleetResult;

std::string check_trial_stats(const WaveformStats& s, std::size_t payload_bits) {
  if (s.frames_ok > s.frames_synced) return "frames_ok > frames_synced";
  if (s.frames_synced > s.trials) return "frames_synced > trials";
  if (s.total_bits != s.trials * payload_bits) return "total_bits != trials * payload_bits";
  if (s.bit_errors > s.total_bits) return "bit_errors > total_bits";
  return {};
}

bool stats_identical(const WaveformStats& a, const WaveformStats& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.trials == b.trials && a.frames_synced == b.frames_synced &&
         a.frames_ok == b.frames_ok && a.total_bits == b.total_bits &&
         a.bit_errors == b.bit_errors && same(a.mean_snr_db, b.mean_snr_db) &&
         same(a.mean_corr_peak, b.mean_corr_peak) &&
         same(a.mean_sic_suppression_db, b.mean_sic_suppression_db);
}

std::string check_fleet_result(const FleetResult& r, const FleetConfig& cfg) {
  if (r.assigned + r.unreachable != r.nodes || r.nodes != cfg.n_nodes)
    return "assigned + unreachable != nodes";
  if (r.delivered > r.assigned) return "delivered > assigned";
  if (r.tally.budget_polls + r.tally.waveform_polls != r.polls)
    return "budget_polls + waveform_polls != polls";
  const std::size_t cap = cfg.fidelity.mode == FidelityMode::kBudgetOnly
                              ? 0
                              : cfg.fidelity.max_waveform_polls * cfg.n_readers;
  if (r.tally.waveform_polls > cap) return "waveform polls above the cap";
  return {};
}

void fold_stats(Fingerprint& fp, const std::vector<WaveformStats>& jobs) {
  for (const WaveformStats& s : jobs) {
    fp.add(static_cast<std::uint64_t>(s.trials));
    fp.add(static_cast<std::uint64_t>(s.frames_synced));
    fp.add(static_cast<std::uint64_t>(s.frames_ok));
    fp.add(static_cast<std::uint64_t>(s.total_bits));
    fp.add(static_cast<std::uint64_t>(s.bit_errors));
    fp.add(s.mean_snr_db);
    fp.add(s.mean_corr_peak);
    fp.add(s.mean_sic_suppression_db);
  }
}

void fold_fleet(Fingerprint& fp, const FleetResult& r) {
  fp.add(r.digest);
  fp.add(static_cast<std::uint64_t>(r.delivered));
  fp.add(static_cast<std::uint64_t>(r.polls));
  fp.add(static_cast<std::uint64_t>(r.tally.waveform_polls));
}

}  // namespace perfbench
