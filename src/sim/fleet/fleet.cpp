#include "sim/fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/parallel.hpp"
#include "net/frame.hpp"
#include "obs/obs.hpp"
#include "sim/fleet/event_queue.hpp"

namespace vab::sim::fleet {
namespace {

// Stream tags for the per-run child hierarchy. All draws in a run descend
// from rng.child(tag)... chains; the run's root Rng is never advanced.
constexpr std::uint64_t kStreamLayout = 0xF1EE7;
constexpr std::uint64_t kStreamReaders = 0xD05E5;
// Per-(reader, window) sub-streams.
constexpr std::uint64_t kStreamPolls = 0;
constexpr std::uint64_t kStreamWaveform = 1;
constexpr std::uint64_t kStreamSlotted = 2;

constexpr std::uint32_t kEventStartWindow = 0;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FleetLayout make_layout(const FleetConfig& cfg, const common::Rng& rng) {
  FleetLayout out;
  // Readers on a coarse deterministic grid spanning the deployment square.
  const auto g = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(cfg.n_readers, 1)))));
  const double pitch = cfg.area_m / static_cast<double>(g + 1);
  out.readers.reserve(cfg.n_readers);
  for (std::size_t r = 0; r < cfg.n_readers; ++r) {
    out.readers.push_back(Position{static_cast<double>(r % g + 1) * pitch,
                                   static_cast<double>(r / g + 1) * pitch});
  }
  // Nodes land uniformly; one sequential stream, consumed in id order.
  common::Rng node_rng = rng.child(kStreamLayout);
  out.nodes.reserve(cfg.n_nodes);
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    const double x = node_rng.uniform(0.0, cfg.area_m);
    const double y = node_rng.uniform(0.0, cfg.area_m);
    out.nodes.push_back(Position{x, y});
  }
  return out;
}

FleetResult run_fleet(const FleetConfig& cfg, const common::Rng& rng) {
  VAB_STAGE("fleet.run");
  FleetResult res;
  res.readers = cfg.n_readers;
  res.nodes = cfg.n_nodes;

  const FleetLayout layout = make_layout(cfg, rng);
  const SpatialGrid grid(layout.nodes, common::Meters{cfg.cell_size_m});

  // Nearest-reader assignment via range-culled grid queries. Equal ranges
  // resolve to the lowest reader id (strict improvement required), so the
  // attachment map is a pure function of the layout.
  std::vector<double> best_range(cfg.n_nodes, std::numeric_limits<double>::infinity());
  std::vector<std::uint32_t> best_reader(cfg.n_nodes, 0xFFFFFFFFU);
  std::vector<std::uint32_t> in_range;
  for (std::size_t r = 0; r < cfg.n_readers; ++r) {
    grid.query(layout.readers[r], common::Meters{cfg.max_link_range_m}, in_range);
    for (const std::uint32_t id : in_range) {
      const double d = distance_m(layout.readers[r], layout.nodes[id]);
      if (d < best_range[id]) {
        best_range[id] = d;
        best_reader[id] = static_cast<std::uint32_t>(r);
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> attached(cfg.n_readers);
  for (std::size_t id = 0; id < cfg.n_nodes; ++id) {
    if (best_reader[id] == 0xFFFFFFFFU) {
      ++res.unreachable;
    } else {
      ++res.assigned;
      attached[best_reader[id]].push_back(static_cast<std::uint32_t>(id));
    }
  }

  // One transport (and one waveform-poll budget) per reader. The waterfall
  // SNR depends only on the base scenario, so all readers share its value.
  const std::size_t wire_bits = net::wire_size(net::kReadingBytes) * 8;
  std::vector<std::unique_ptr<FleetLinkTransport>> transports;
  transports.reserve(cfg.n_readers);
  for (std::size_t r = 0; r < cfg.n_readers; ++r) {
    transports.push_back(std::make_unique<FleetLinkTransport>(
        cfg.scenario, cfg.fidelity, common::Db{cfg.contention_penalty_db},
        wire_bits));
    if (cfg.mac_mode == MacMode::kSlotted) transports.back()->set_slotted_mode(true);
  }
  if (!transports.empty())
    res.waterfall_snr_db = transports[0]->waterfall_snr_db().raw();

  // Readers with work all start at t = 0: the queue's FIFO tie-break makes
  // the first round pop in reader-id order by construction.
  EventQueue queue;
  std::vector<double> busy_until(cfg.n_readers, 0.0);
  for (std::size_t r = 0; r < cfg.n_readers; ++r) {
    if (!attached[r].empty())
      queue.push(Event{0.0, static_cast<std::uint32_t>(r), kEventStartWindow, 0});
  }

  static const obs::Counter windows_ctr = obs::counter("fleet.windows");
  static const obs::Counter delivered_ctr = obs::counter("fleet.delivered");
  // Per-reader attribution. Reader ids are bounded by the deployment (a few
  // dozen at most in the shipped scenarios), far under the cap, so every
  // reader gets its own series and the snapshot stays deterministic.
  static const obs::CounterFamily windows_by_reader(
      obs::Registry::global(), "fleet.windows", 256);
  static const obs::CounterFamily delivered_by_reader(
      obs::Registry::global(), "fleet.delivered", 256);
  static const obs::CounterFamily polls_by_reader(
      obs::Registry::global(), "fleet.polls", 256);
  // Each reader's three series, resolved when it opens its first window.
  struct ReaderCounters {
    obs::Counter windows, delivered, polls;
  };
  std::vector<std::optional<ReaderCounters>> reader_ctrs(cfg.n_readers);

  while (const auto ev = queue.pop()) {
    ++res.events;
    const std::size_t r = ev->entity;
    const std::size_t w = static_cast<std::size_t>(ev->payload);
    const double t = queue.now_s();
    const std::vector<std::uint32_t>& ids = attached[r];

    // Contention snapshot at window start: other readers mid-window within
    // interference range. Held constant over the window (the model's
    // granularity is the window, not the poll).
    std::size_t contenders = 0;
    for (std::size_t r2 = 0; r2 < cfg.n_readers; ++r2) {
      if (r2 == r || !(busy_until[r2] > t)) continue;
      if (distance_m(layout.readers[r], layout.readers[r2]) <=
          cfg.interference_range_m)
        ++contenders;
    }

    const std::size_t lo = w * kWindowAddrs;
    const std::size_t hi = std::min(lo + kWindowAddrs, ids.size());
    std::vector<FleetLinkTransport::LinkInfo> links;
    links.reserve(hi - lo);
    std::vector<std::uint8_t> population;
    population.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) {
      FleetLinkTransport::LinkInfo link;
      link.node_id = ids[k];
      link.range_m = std::max(best_range[ids[k]], 1.0);
      links.push_back(link);
      population.push_back(static_cast<std::uint8_t>(k - lo));
    }

    const std::size_t n_links = links.size();
    const PollTally tally_before = transports[r]->tally();
    const common::Rng window_rng = rng.child(kStreamReaders + r).child(w);
    transports[r]->begin_window(std::move(links), window_rng.child(kStreamWaveform));
    transports[r]->set_contention(contenders);

    double acquisition_s = 0.0;
    if (cfg.mac_mode == MacMode::kSlotted) {
      // Slotted acquisition: this window's nodes contend for slots before
      // any ARQ poll; only resolved nodes enter the inventory. Replaces the
      // flat SINR penalty (withheld via set_slotted_mode) at slot
      // granularity.
      const std::vector<FleetLinkTransport::LinkInfo>& wl = transports[r]->links();
      std::vector<net::anticollision::Contender> contenders_in;
      contenders_in.reserve(wl.size());
      for (std::size_t k = 0; k < wl.size(); ++k) {
        net::anticollision::Contender c;
        c.id = static_cast<std::uint16_t>(k);
        c.rx_power_rel = wl[k].snr_db.to_linear().raw();
        c.delivery_prob =
            transports[r]->uplink_entry().frame_delivery_prob(wl[k].snr_db, wire_bits);
        contenders_in.push_back(c);
      }
      common::Rng slot_rng = window_rng.child(kStreamSlotted);
      const net::anticollision::SlottedResult sres =
          net::anticollision::run_slotted_inventory(contenders_in, cfg.slotted,
                                                    slot_rng);
      res.slot_total += sres.slots;
      res.slot_idle += sres.idle_slots;
      res.slot_success += sres.success_slots;
      res.slot_collision += sres.collision_slots;
      res.slot_capture += sres.capture_slots;
      res.slotted_unresolved += contenders_in.size() - sres.resolved.size();
      // Acquisition slots are short RN16-style exchanges; charge each one
      // a reply-slot of airtime on the window clock.
      acquisition_s = static_cast<double>(sres.slots) *
                      cfg.inventory.timing.slot_duration_s();
      population.clear();
      for (const std::uint16_t id : sres.resolved)
        population.push_back(static_cast<std::uint8_t>(id));
    }

    net::InventoryResult wres;
    if (!population.empty()) {
      common::Rng poll_rng = window_rng.child(kStreamPolls);
      wres = net::run_inventory(population, cfg.inventory, nullptr, poll_rng,
                                transports[r].get());
    }
    wres.duration_s += acquisition_s;

    ++res.windows;
    windows_ctr.add(1);
    if (contenders > 0) ++res.contended_windows;
    res.delivered += wres.delivered;
    delivered_ctr.add(static_cast<std::uint64_t>(wres.delivered));
    res.polls += wres.polls;
    res.retries += wres.retries;
    res.timeouts += wres.timeouts;
    res.duplicates += wres.duplicates;
    res.acks_sent += wres.acks_sent;
    res.acks_lost += wres.acks_lost;
    res.demotions += wres.demotions;
    res.mcs_steps_up += wres.mcs_steps_up;
    res.mcs_steps_down += wres.mcs_steps_down;
    res.reconfigures += wres.reconfigures;
    res.airtime_s += wres.duration_s;

    if (!reader_ctrs[r]) {
      const obs::LabelSet reader_label{{"reader", std::to_string(r)}};
      reader_ctrs[r] = ReaderCounters{windows_by_reader.with(reader_label),
                                      delivered_by_reader.with(reader_label),
                                      polls_by_reader.with(reader_label)};
    }
    reader_ctrs[r]->windows.inc();
    reader_ctrs[r]->delivered.add(static_cast<std::uint64_t>(wres.delivered));
    reader_ctrs[r]->polls.add(static_cast<std::uint64_t>(wres.polls));

    busy_until[r] = t + wres.duration_s + cfg.inventory.timing.guard_s;
    res.makespan_s = std::max(res.makespan_s, busy_until[r]);

    if (cfg.record_series) {
      const PollTally& ta = transports[r]->tally();
      WindowPoint wp;
      wp.seq = static_cast<std::uint64_t>(res.windows - 1);
      wp.t_close_s = busy_until[r];
      wp.reader = static_cast<std::uint32_t>(r);
      wp.window = static_cast<std::uint64_t>(w);
      wp.contenders = contenders;
      wp.links = n_links;
      wp.delivered = wres.delivered;
      wp.polls = wres.polls;
      wp.retries = wres.retries;
      wp.timeouts = wres.timeouts;
      wp.escalations =
          (ta.escalations_marginal - tally_before.escalations_marginal) +
          (ta.escalations_contention - tally_before.escalations_contention);
      wp.waveform_polls = ta.waveform_polls - tally_before.waveform_polls;
      wp.airtime_s = wres.duration_s;
      res.series.push_back(wp);
    }
    if (hi < ids.size()) {
      queue.push(Event{busy_until[r], static_cast<std::uint32_t>(r),
                       kEventStartWindow, static_cast<std::uint64_t>(w + 1)});
    }
  }

  for (const auto& tp : transports) {
    const PollTally& t = tp->tally();
    res.tally.budget_polls += t.budget_polls;
    res.tally.waveform_polls += t.waveform_polls;
    res.tally.escalations_marginal += t.escalations_marginal;
    res.tally.escalations_contention += t.escalations_contention;
    res.tally.waveform_cap_hits += t.waveform_cap_hits;
    res.tally.contended_polls += t.contended_polls;
  }
  res.complete = res.delivered == res.assigned;

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t v :
       {res.readers, res.nodes, res.assigned, res.unreachable, res.delivered,
        res.polls, res.retries, res.timeouts, res.duplicates, res.acks_sent,
        res.acks_lost, res.demotions, res.windows, res.events,
        res.contended_windows, res.tally.budget_polls, res.tally.waveform_polls,
        res.tally.escalations_marginal, res.tally.escalations_contention,
        res.tally.waveform_cap_hits, res.tally.contended_polls}) {
    h = fnv1a(h, static_cast<std::uint64_t>(v));
  }
  // Feature-gated counters fold in only when their feature is on, so every
  // historical digest (penalty MAC, no ladder) is byte-identical.
  if (cfg.mac_mode == MacMode::kSlotted) {
    for (const std::size_t v :
         {res.slot_total, res.slot_idle, res.slot_success, res.slot_collision,
          res.slot_capture, res.slotted_unresolved}) {
      h = fnv1a(h, static_cast<std::uint64_t>(v));
    }
  }
  if (cfg.inventory.ladder != nullptr) {
    for (const std::size_t v :
         {res.mcs_steps_up, res.mcs_steps_down, res.reconfigures}) {
      h = fnv1a(h, static_cast<std::uint64_t>(v));
    }
  }
  res.digest = fnv1a(h, res.complete ? 1 : 0);
  return res;
}

std::vector<FleetResult> run_fleet_replicates(const FleetConfig& cfg,
                                              std::size_t n_runs,
                                              const common::Rng& rng) {
  std::vector<FleetResult> out(n_runs);
  common::parallel_for(std::size_t{0}, n_runs, [&](std::size_t k) {
    const common::Rng run_rng = rng.child(k);
    out[k] = run_fleet(cfg, run_rng);
  });
  return out;
}

}  // namespace vab::sim::fleet
