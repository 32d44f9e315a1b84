// EXT-6 — Rate adaptation and anti-collision: adaptive MCS vs the fixed
// paper rate over an SNR sweep (goodput, delivery, Jain fairness), and the
// slotted Q-style MAC vs the flat SINR contention penalty over a density
// sweep of the four-reader fleet.
//
// Acceptance gates (exit code 3 on failure):
//  - adaptive goodput >= 1.5x fixed at the top sweep SNR, while matching
//    fixed delivery (within 2%) at the bottom rung's operating point;
//  - the slotted MAC delivers strictly more than the SINR-penalty model at
//    the dense sweep points (>= 50 contending nodes).
// Determinism gates: the telemetry sweep digest is printed and must be
// stable across re-runs, and the densest fleet point is re-run with the
// parallel engine pinned to 1, 2, and 8 threads — every replicate digest
// must match bit-for-bit (exit code 1 on mismatch). `budget_s=N` bounds the
// wall clock (exit code 2).
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "net/inventory.hpp"
#include "net/mcs/mcs.hpp"
#include "net/mcs/transport.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/scenario.hpp"

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Telemetry timing for the short-range EXT-6 deployment: a reasonable
/// downlink rate and guard so the uplink MCS actually dominates airtime
/// (the PIE 80 bps + 0.7 s guard default would mask the ladder entirely).
vab::net::MacTiming ext6_timing() {
  vab::net::MacTiming t;
  t.downlink_bitrate_bps = 500.0;
  t.guard_s = 0.1;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("EXT6", "Adaptive MCS ladder + slotted anti-collision",
                "rate adaptation recovers throughput headroom; slotted "
                "acquisition outperforms flat SINR contention when dense");

  const std::uint64_t seed = cfg.get_count("seed", 61);
  const auto cycles = cfg.get_count("cycles", 80);
  const auto n_nodes = cfg.get_count("nodes", 8);
  const auto replicates = cfg.get_count("replicates", 3);
  const double budget_s = cfg.get_double("budget_s", 0.0);
  const unsigned threads = bench::init_threads(cfg);
  common::Rng rng(seed);
  bench::Stopwatch total;

  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();

  // ---- Part A: SNR sweep, fixed paper rate vs adaptive ladder ------------
  const auto telemetry = [&](double snr_db, bool adaptive, std::uint64_t child) {
    net::InventoryConfig icfg;
    icfg.timing = ext6_timing();
    if (adaptive) icfg.ladder = &ladder;
    net::mcs::AnalyticMcsConfig tcfg;
    tcfg.snr_ref_db = snr_db;
    net::mcs::AnalyticMcsTransport tp(ladder, tcfg);
    std::vector<std::uint8_t> pop(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i)
      pop[i] = static_cast<std::uint8_t>(i + 1);
    common::Rng run_rng = rng.child(child);
    return net::run_telemetry(pop, cycles, icfg, nullptr, run_rng, &tp);
  };

  // InventoryResult::delivery_ratio accumulates deliveries over all cycles;
  // normalise to a per-cycle delivery rate for the table and the gate.
  const auto del_rate = [&](const net::TelemetryResult& r) {
    return static_cast<double>(r.totals.delivered) /
           (static_cast<double>(n_nodes) * static_cast<double>(cycles));
  };

  const double low_snr = ladder.rung(0).snr_for_delivery(0.9, 96).raw();
  const std::vector<double> snr_sweep = {low_snr, 4.0, 8.0, 12.0,
                                         16.0,    20.0, 25.0};
  common::Table ta({"snr_db", "fixed_bps", "adapt_bps", "gain", "fixed_del",
                    "adapt_del", "jain", "steps", "reconf"});
  std::uint64_t tele_digest = 0xcbf29ce484222325ULL;
  double gain_at_top = 0.0;
  double fixed_del_low = 0.0, adapt_del_low = 0.0;
  for (std::size_t i = 0; i < snr_sweep.size(); ++i) {
    const double snr = snr_sweep[i];
    const auto fixed = telemetry(snr, false, 2 * i);
    const auto adapt = telemetry(snr, true, 2 * i + 1);
    const double gain = fixed.goodput_bps() > 0.0
                            ? adapt.goodput_bps() / fixed.goodput_bps()
                            : 0.0;
    if (i == snr_sweep.size() - 1) gain_at_top = gain;
    if (i == 0) {
      fixed_del_low = del_rate(fixed);
      adapt_del_low = del_rate(adapt);
    }
    tele_digest = fnv1a(tele_digest, adapt.totals.delivered);
    tele_digest = fnv1a(tele_digest, adapt.totals.polls);
    tele_digest = fnv1a(tele_digest, adapt.totals.mcs_steps_up);
    tele_digest = fnv1a(tele_digest, adapt.totals.mcs_steps_down);
    tele_digest = fnv1a(tele_digest, adapt.totals.reconfigures);
    for (const auto& [rung, polls] : adapt.totals.rung_polls) {
      tele_digest = fnv1a(tele_digest, rung);
      tele_digest = fnv1a(tele_digest, polls);
    }
    ta.add_row({common::Table::num(snr, 2),
                common::Table::num(fixed.goodput_bps(), 1),
                common::Table::num(adapt.goodput_bps(), 1),
                common::Table::num(gain, 2),
                common::Table::num(del_rate(fixed), 3),
                common::Table::num(del_rate(adapt), 3),
                common::Table::num(adapt.jain_fairness(), 3),
                std::to_string(adapt.totals.mcs_steps_up +
                               adapt.totals.mcs_steps_down),
                std::to_string(adapt.totals.reconfigures)});
  }
  bench::emit(ta, cfg);
  std::cout << "telemetry digest: " << hex64(tele_digest) << "\n\n";

  // ---- Part B: density sweep, SINR penalty vs slotted MAC ----------------
  const auto fleet_cfg = [&](std::size_t nodes, sim::fleet::MacMode mode) {
    sim::fleet::FleetConfig fc;
    fc.scenario = sim::vab_river_scenario();
    fc.scenario.env.fading_sigma_db = 0.0;
    fc.n_readers = 4;
    fc.n_nodes = nodes;
    fc.area_m = 900.0;  // typical link 300..550 m: inside the waterfall band
    fc.max_link_range_m = 550.0;
    fc.interference_range_m = 5000.0;
    fc.contention_penalty_db = 4.0;
    fc.inventory.max_polls = 64;
    fc.mac_mode = mode;
    fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
    return fc;
  };

  const std::vector<std::size_t> density = {24, 48, 72, 120, 192};
  common::Table tb({"nodes", "assigned", "pen_del", "slot_del", "slots",
                    "captures", "pen_digest", "slot_digest"});
  bool slotted_wins_dense = true;
  std::size_t dense_points = 0;
  sim::fleet::FleetConfig densest_slotted = fleet_cfg(density.back(),
                                                     sim::fleet::MacMode::kSlotted);
  for (std::size_t i = 0; i < density.size(); ++i) {
    const std::size_t nodes = density[i];
    std::uint64_t pen_digest = 0, slot_digest = 0;
    std::size_t assigned = 0, pen_del = 0, slot_del = 0, slots = 0, captures = 0;
    const auto pen_runs = sim::fleet::run_fleet_replicates(
        fleet_cfg(nodes, sim::fleet::MacMode::kSinrPenalty), replicates,
        rng.child(100 + i));
    const auto slot_runs = sim::fleet::run_fleet_replicates(
        fleet_cfg(nodes, sim::fleet::MacMode::kSlotted), replicates,
        rng.child(100 + i));
    for (std::size_t k = 0; k < replicates; ++k) {
      pen_digest = fnv1a(pen_digest, pen_runs[k].digest);
      slot_digest = fnv1a(slot_digest, slot_runs[k].digest);
      assigned += pen_runs[k].assigned;
      pen_del += pen_runs[k].delivered;
      slot_del += slot_runs[k].delivered;
      slots += slot_runs[k].slot_total;
      captures += slot_runs[k].slot_capture;
    }
    // >= 50 contending nodes: every reader contends with every other here,
    // so the whole assigned population is in contended windows.
    if (assigned >= 50 * replicates) {
      ++dense_points;
      slotted_wins_dense = slotted_wins_dense && slot_del > pen_del;
    }
    tb.add_row({std::to_string(nodes), std::to_string(assigned),
                std::to_string(pen_del), std::to_string(slot_del),
                std::to_string(slots), std::to_string(captures),
                hex64(pen_digest), hex64(slot_digest)});
  }
  bench::emit(tb, cfg);
  const double sweep_s = total.seconds();
  bench::emit_timing("EXT6", "rate_adapt_sweep", sweep_s,
                     snr_sweep.size() * 2 * cycles * n_nodes);

  // ---- Gates -------------------------------------------------------------
  bool identical = true;
  if (cfg.get_bool("check_identity", true)) {
    std::vector<std::vector<std::uint64_t>> digests;
    for (const unsigned n : {1U, 2U, 8U}) {
      common::set_thread_count(n);
      const auto runs = sim::fleet::run_fleet_replicates(
          densest_slotted, replicates, rng.child(999));
      std::vector<std::uint64_t> d;
      d.reserve(runs.size());
      for (const auto& r : runs) d.push_back(r.digest);
      digests.push_back(std::move(d));
    }
    common::set_thread_count(threads);
    for (std::size_t i = 1; i < digests.size(); ++i)
      if (digests[i] != digests[0]) identical = false;
    std::cout << "thread identity (1/2/8 threads, " << densest_slotted.n_nodes
              << " nodes, slotted): "
              << (identical ? "bit-identical" : "MISMATCH") << "\n";
  }

  const bool goodput_gate = gain_at_top >= 1.5;
  const bool delivery_gate = adapt_del_low >= fixed_del_low - 0.02;
  const bool slotted_gate = dense_points > 0 && slotted_wins_dense;
  std::cout << "goodput gate (adaptive >= 1.5x fixed at "
            << common::Table::num(snr_sweep.back(), 1)
            << " dB): " << common::Table::num(gain_at_top, 2) << "x "
            << (goodput_gate ? "PASS" : "FAIL") << "\n";
  std::cout << "delivery gate (adaptive matches fixed at "
            << common::Table::num(low_snr, 2)
            << " dB): " << common::Table::num(adapt_del_low, 3) << " vs "
            << common::Table::num(fixed_del_low, 3) << " "
            << (delivery_gate ? "PASS" : "FAIL") << "\n";
  std::cout << "slotted gate (beats SINR penalty at " << dense_points
            << " dense points): " << (slotted_gate ? "PASS" : "FAIL") << "\n";

  if (budget_s > 0.0 && sweep_s > budget_s) {
    std::cout << "BUDGET EXCEEDED: sweep took " << common::Table::num(sweep_s, 2)
              << " s (budget " << common::Table::num(budget_s, 2) << " s)\n";
    return 2;
  }
  if (!identical) return 1;
  if (!(goodput_gate && delivery_gate && slotted_gate)) return 3;
  return 0;
}
