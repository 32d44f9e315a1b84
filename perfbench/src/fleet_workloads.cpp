// fleet_budget and fleet_adaptive: serial sim::fleet::run_fleet replicates,
// replicate k seeded from Rng(seed).child(k). Untraced runs repeat a fixed
// set of replicates in closed-loop passes until the time is up and rate each
// by its fastest repeat. Replicates run serially, so the parallel engine is
// idle.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "obs/obs.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/medium.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace common = vab::common;
namespace sim = vab::sim;
namespace fleet = vab::sim::fleet;

/// The first replicates always run and feed the outcome fingerprint.
constexpr std::size_t kFingerprintReplicates = 4;
/// Distinct replicates of an untraced run, each repeated until the time is
/// up (~0.12 s and ~0.7 s per replicate: ~4 runs each in 30 s).
constexpr std::size_t kBudgetReplicates = 48;
constexpr std::size_t kAdaptiveReplicates = 12;
constexpr std::size_t kProbeLinks = 100;
constexpr std::uint64_t kWarmupStream = 0xFFFF0001ULL;
constexpr std::uint64_t kProbeStream = 0xFFFF0002ULL;

struct Replicate {
  fleet::FleetResult result;
  double wall_s = 0.0;
};

/// Replicate `k` (seeded from Rng(seed).child(k)) with its output checks and
/// error accounting; nullopt when it threw.
std::optional<Replicate> checked_replicate(const fleet::FleetConfig& cfg, const Options& o,
                                           std::size_t k, Result& res, Tracer* tr) {
  ++res.attempted;
  Replicate rep;
  try {
    const common::Rng rng = common::Rng(o.seed).child(k);
    const double t0 = now_s();
    if (tr) {
      tr->set_op(k);
      Tracer::Scope s(*tr, "fleet.run");
      rep.result = fleet::run_fleet(cfg, rng);
    } else {
      rep.result = fleet::run_fleet(cfg, rng);
    }
    rep.wall_s = now_s() - t0;
  } catch (const std::exception& e) {
    report_failure("replicate " + std::to_string(k) + ": " + e.what());
    ++res.failed;
    return std::nullopt;
  }
  if (const std::string why = check_fleet_result(rep.result, cfg); !why.empty()) {
    report_failure("replicate " + std::to_string(k) + ": " + why);
    ++res.failed;
  }
  return rep;
}

void print_fingerprint(const std::string& name, const std::vector<Replicate>& reps) {
  Fingerprint fp;
  for (std::size_t k = 0; k < kFingerprintReplicates && k < reps.size(); ++k) {
    const fleet::FleetResult& r = reps[k].result;
    fold_fleet(fp, r);
    std::printf("fingerprint replicate %zu: digest=%016llx delivered=%zu polls=%zu "
                "waveform_polls=%zu\n",
                k, static_cast<unsigned long long>(r.digest), r.delivered, r.polls,
                r.tally.waveform_polls);
  }
  std::printf("fingerprint %s replicates 0-%zu: %s\n", name.c_str(),
              kFingerprintReplicates - 1, fp.hex().c_str());
}

/// Layout and grid probes on the deployments of the first `replicates`
/// replicates; transport, ARQ and link-budget probes on replicate 0's links.
void probe_fleet_layers(const fleet::FleetConfig& cfg, const Options& o,
                        std::size_t replicates, LayerReport& lr, Tracer& tr,
                        bool waveform_trials) {
  const common::Rng root(o.seed);
  std::vector<double> layout_s, build_s;
  double query_s = 0.0;
  std::size_t queries = 0;
  for (std::size_t k = 0; k < replicates; ++k) {
    fleet::FleetLayout layout;
    {
      Tracer::Scope s(tr, "fleet.make_layout");
      layout = fleet::make_layout(cfg, root.child(k));
      layout_s.push_back(s.seconds());
    }
    std::optional<fleet::SpatialGrid> grid;
    {
      Tracer::Scope s(tr, "fleet.grid_build");
      grid.emplace(layout.nodes, common::Meters{cfg.cell_size_m});
      build_s.push_back(s.seconds());
    }
    std::vector<std::uint32_t> hits;
    Tracer::Scope q(tr, "fleet.grid_query");
    for (const fleet::Position& reader : layout.readers) {
      grid->query(reader, common::Meters{cfg.max_link_range_m}, hits);
      ++queries;
    }
    query_s += q.seconds();
  }
  lr.fleet_layout_ms = median(layout_s) * 1e3;
  lr.fleet_grid_build_ms = median(build_s) * 1e3;
  lr.fleet_grid_query_us = ratio(query_s * 1e6, static_cast<double>(queries));

  const fleet::FleetLayout layout0 = fleet::make_layout(cfg, root.child(0));
  const std::vector<double> ranges = layout_link_ranges(cfg, layout0, fleet::kWindowAddrs);
  const NetProbe np = probe_net(cfg, ranges, root.child(kProbeStream), tr);
  lr.net_poll_budget_us = np.poll_budget_us;
  lr.net_poll_waveform_ms = np.poll_waveform_ms;
  lr.net_poll_cost_ratio = ratio(np.poll_waveform_ms * 1e3, np.poll_budget_us);
  lr.net_inventory_us_per_poll = np.inventory_us_per_poll;
  lr.linkbudget_evaluate_ns = np.evaluate_ns;

  if (!waveform_trials) return;
  // The sim/channel/phy/dsp chain as waveform polls use it: report-frame
  // payloads over the layout's links.
  vab::net::Frame report;
  report.payload.resize(vab::net::kReadingBytes);
  const std::size_t report_bits = report.wire_size() * 8;
  std::vector<TrialCase> cases;
  for (std::size_t i = 0; i < ranges.size() && i < kProbeLinks; ++i) {
    sim::Scenario sc = cfg.scenario;
    sc.range_m = ranges[i];
    cases.push_back(TrialCase{sc, report_bits, root.child(kProbeStream).child(i), i < 4});
  }
  const TrialProbe tp = probe_trials(cases, tr);
  fill_trial_layers(lr, tp, probe_dsp(tp.dsp_inputs, tr));
}

Result run_fleet(const Options& o, const std::string& name, const fleet::FleetConfig& cfg,
                 std::size_t replicates, bool waveform_trials) {
  Result res;
  const double t_start = now_s();
  common::set_thread_count(o.threads);
  // Warm-up: one replicate on a stream no timed replicate uses.
  const fleet::FleetResult warm = fleet::run_fleet(cfg, common::Rng(o.seed).child(kWarmupStream));
  if (const std::string why = check_fleet_result(warm, cfg); !why.empty()) {
    report_failure("warm-up replicate: " + why);
    res.checks_ok = false;
  }
  res.setup_s = now_s() - t_start;
  if (o.setup_only) return res;

  if (!o.trace) {
    // Replicates 0..n-1 repeat in passes; every repeat must reproduce the
    // first pass's digest.
    BestOfPasses best(replicates);
    std::vector<Replicate> first;
    std::vector<std::optional<std::uint64_t>> digest(replicates);
    std::vector<double> nodes(replicates), polls(replicates), delivered(replicates);
    const double t0 = now_s();
    for (std::size_t i = 0; best.more(i, t0, o.seconds); ++i) {
      const std::size_t k = i % replicates;
      auto rep = checked_replicate(cfg, o, k, res, nullptr);
      if (!rep) continue;
      const fleet::FleetResult& r = rep->result;
      if (!digest[k]) {
        digest[k] = r.digest;
        nodes[k] = static_cast<double>(r.nodes);
        polls[k] = static_cast<double>(r.polls);
        delivered[k] = static_cast<double>(r.delivered);
      } else if (r.digest != *digest[k]) {
        report_failure("replicate " + std::to_string(k) + ": repeat differs from its first run");
        ++res.failed;
      }
      best.record(k, rep->wall_s);
      if (i < replicates) first.push_back(std::move(*rep));
    }
    print_fingerprint(name, first);
    const auto [lo, hi] = best.repeats();
    std::printf("%s: %zu replicates, %zu-%zu runs each\n", name.c_str(), replicates, lo, hi);
    vab::obs::set_manifest("perfbench.replicates", std::to_string(replicates));
    // Nodes simulated per second: fig_fleet's BENCH convention for "trials".
    res.add("trials_per_s", best.median_rate(nodes), "1/s");
    res.add("polls_per_s", best.median_rate(polls), "1/s");
    res.add("delivered_per_s", best.median_rate(delivered), "1/s");
    return res;
  }

  // Each replicate runs twice, untraced and then traced (benchmark span plus
  // the in-program profiler); the pair's wall ratio is the tracing overhead.
  LayerReport lr;
  Tracer tr;
  vab::obs::enable_profile(o.workdir + "/profile-" + name + ".json");
  vab::obs::clear_trace();
  std::vector<Replicate> traced;
  std::vector<double> overhead, traced_wall;
  const double t0 = now_s();
  for (std::size_t k = 0; k < kFingerprintReplicates || now_s() - t0 < 0.5 * o.seconds; ++k) {
    vab::obs::disable_trace();
    const auto plain = checked_replicate(cfg, o, k, res, nullptr);
    vab::obs::enable_trace("");
    auto rep = checked_replicate(cfg, o, k, res, &tr);
    if (!plain || !rep) continue;
    if (plain->result.digest != rep->result.digest) {
      report_failure("replicate " + std::to_string(k) + ": digest differs with tracing on");
      res.checks_ok = false;
    }
    overhead.push_back(rep->wall_s / plain->wall_s - 1.0);
    traced_wall.push_back(rep->wall_s);
    traced.push_back(std::move(*rep));
  }
  const vab::obs::ProfileSummary prof = vab::obs::profile_from_trace();
  lr.obs_trace_overhead = median(overhead);
  lr.fleet_run_s = median(tr.durations_s("fleet.run"));
  for (const auto& s : prof.stages)
    if (s.name == "fleet.run" && s.calls > 0)
      lr.obs_profile_fleet_run_s =
          static_cast<double>(s.total_ns) / 1e9 / static_cast<double>(s.calls);
  lr.obs_profile_gap_max =
      cross_check("fleet.run vs fleet.run_s", lr.obs_profile_fleet_run_s,
                  mean(tr.durations_s("fleet.run")));

  // Exact per-replicate counts over the fingerprint replicates.
  double polls = 0, wave = 0, events = 0, windows = 0, delivered = 0, retries = 0,
         cap_hits = 0, budget_polls = 0, assigned = 0;
  const std::size_t n = std::min(kFingerprintReplicates, traced.size());
  for (std::size_t k = 0; k < n; ++k) {
    const fleet::FleetResult& r = traced[k].result;
    polls += static_cast<double>(r.polls);
    wave += static_cast<double>(r.tally.waveform_polls);
    budget_polls += static_cast<double>(r.tally.budget_polls);
    events += static_cast<double>(r.events);
    windows += static_cast<double>(r.windows);
    delivered += static_cast<double>(r.delivered);
    retries += static_cast<double>(r.retries);
    cap_hits += static_cast<double>(r.tally.waveform_cap_hits);
    assigned += static_cast<double>(r.assigned);
  }
  const double nd = static_cast<double>(n);
  lr.fleet_polls = polls / nd;
  lr.fleet_waveform_polls = wave / nd;
  lr.fleet_events = events / nd;
  lr.fleet_windows = windows / nd;
  lr.fleet_waveform_poll_share = ratio(wave, polls);
  lr.fleet_cap_hit_ratio = ratio(cap_hits, wave + cap_hits);
  lr.fleet_delivered_per_poll = ratio(delivered, polls);
  lr.net_retries_per_delivered = ratio(retries, delivered);

  probe_fleet_layers(cfg, o, traced.size(), lr, tr, waveform_trials);

  // What the layer costs add up to per replicate, against the measured run.
  const double predicted_s =
      (lr.fleet_layout_ms + lr.fleet_grid_build_ms) / 1e3 +
      static_cast<double>(cfg.n_readers) * lr.fleet_grid_query_us / 1e6 +
      assigned / nd * lr.linkbudget_evaluate_ns / 1e9 +
      budget_polls / nd * lr.net_poll_budget_us / 1e6 +
      wave / nd * lr.net_poll_waveform_ms / 1e3 +
      polls / nd * lr.net_inventory_us_per_poll / 1e6;
  lr.fleet_accounted_share = ratio(predicted_s, mean(traced_wall));
  tr.write_json(o.workdir + "/trace-" + name + ".json");
  add_layer_metrics(res, lr);
  return res;
}

}  // namespace

Result run_fleet_budget(const Options& o) {
  fleet::FleetConfig cfg;  // fig_fleet's largest point, budget fidelity
  cfg.scenario = sim::vab_river_scenario();
  cfg.n_nodes = 100000;
  cfg.n_readers = 100;
  cfg.area_m = 6000.0;
  cfg.fidelity.mode = fleet::FidelityMode::kBudgetOnly;
  return run_fleet(o, "fleet_budget", cfg, kBudgetReplicates, false);
}

Result run_fleet_adaptive(const Options& o) {
  fleet::FleetConfig cfg;  // F2's geometry, adaptive fidelity, 8-poll cap
  cfg.scenario = sim::vab_ocean_scenario();
  cfg.n_nodes = 5000;
  cfg.n_readers = 9;
  cfg.area_m = 1500.0;
  cfg.fidelity.mode = fleet::FidelityMode::kAdaptive;
  cfg.fidelity.max_waveform_polls = 8;
  return run_fleet(o, "fleet_adaptive", cfg, kAdaptiveReplicates, true);
}

}  // namespace perfbench
