#include "net/inventory.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace vab::net {

namespace {

double downlink_duration_s(const MacTiming& t, const Frame& f) {
  return static_cast<double>(f.wire_size() * 8) / t.downlink_bitrate_bps;
}

// Uplink slot of a poll at `entry`, the commanded rung (slower rungs get
// longer slots), or the fixed-rate FM0 slot when the reader runs no ladder.
double slot_s_at(const mcs::McsEntry* entry, const MacTiming& t) {
  return entry ? entry->slot_duration(t.slot_payload_bytes).raw() : t.slot_duration_s();
}

// What one run_inventory / run_telemetry call polls with: the reader, one
// NodeMac per address (both on the MCS ladder when cfg.ladder is set), and
// the medium every leg crosses — `transport`, or the i.i.d. loss floor
// built from cfg when it is null.
struct Session {
  Session(const std::vector<std::uint8_t>& population, const InventoryConfig& cfg,
          LinkTransport* transport)
      : reader(cfg.timing, cfg.arq),
        default_transport(cfg.reply_loss_prob, cfg.ack_loss_prob),
        medium(transport ? *transport : default_transport) {
    if (population.empty()) throw std::invalid_argument("empty population");
    nodes.reserve(population.size());
    for (auto addr : population) nodes.emplace_back(addr, cfg.timing);
    if (cfg.ladder != nullptr) {
      reader.enable_mcs(*cfg.ladder, cfg.adapt);
      for (auto& n : nodes) n.enable_mcs(*cfg.ladder);
    }
  }

  // Copies the run's MCS accounting into `res`.
  void finish(InventoryResult& res) const {
    res.mcs_steps_up = reader.mcs_steps_up();
    res.mcs_steps_down = reader.mcs_steps_down();
    res.rung_polls = reader.rung_polls();
    for (const auto& n : nodes) res.reconfigures += n.reconfigures();
  }

  ReaderMac reader;
  std::vector<NodeMac> nodes;
  IidLossTransport default_transport;
  LinkTransport& medium;
};

}  // namespace

PollOutcome poll_exchange(ReaderMac& reader, NodeMac& node,
                          const SensorReading& reading, const InventoryConfig& cfg,
                          LinkTransport& transport, fault::FaultInjector* fault,
                          common::Rng& rng, InventoryResult& res) {
  const MacTiming& t = cfg.timing;
  const mcs::McsEntry* entry = reader.uplink_entry(node.address());
  const double slot_s = slot_s_at(entry, t);
  // Reply timeout: the slot plus half a slot of tolerance; replies skewed
  // past this window count as misses.
  const double timeout_s = 1.5 * slot_s;
  // Feeds the poll outcome into the node's rate controller. Only polls that
  // reached the uplink leg carry channel information: the reader's
  // correlator measured the slot window, so even a failed decode yields an
  // SNR sample when the transport measures one.
  const auto observe = [&](bool delivered) {
    if (entry == nullptr) return;
    reader.observe_link(node.address(), transport.last_uplink_snr_db(), delivered);
  };
  const Frame query = reader.make_query(node.address());
  ++res.polls;
  res.duration_s += downlink_duration_s(t, query);

  // Downlink: a duty-cycled node can sleep through the query, and a
  // dropped-out node is dark for the whole exchange. A dark node tells the
  // rate controller nothing, so these paths do not observe.
  if (fault && (fault->dropped_out() || fault->wake_missed())) {
    res.duration_s += timeout_s;
    return PollOutcome::kMiss;
  }

  auto response = node.on_downlink(query, reading);
  if (!response) {
    res.duration_s += timeout_s;
    return PollOutcome::kMiss;
  }
  res.duration_s += t.guard_s + slot_s;

  // Uplink: the transport decides survival (clean-channel i.i.d. loss by
  // default, SNR-derived frame loss or a waveform decode in the fleet),
  // then burst loss, frame corruption, and clock skew pushing the reply
  // out of the reader's slot window.
  bytes& wire = reader.wire_buffer();
  serialize(response->frame, wire);
  if (entry != nullptr) transport.set_uplink_mcs(node.address(), entry);
  if (!transport.uplink_delivered(node.address(), wire, rng)) {
    observe(false);
    return PollOutcome::kMiss;
  }
  if (fault && fault->reply_lost()) {
    observe(false);
    return PollOutcome::kMiss;
  }
  if (fault) {
    if (fault->corrupt_frame(wire) == fault::FrameFate::kDropped) {
      observe(false);
      return PollOutcome::kMiss;
    }
    const double skew = fault->clock_skew_s(slot_s);
    if (std::abs(skew) > timeout_s - slot_s) {
      observe(false);
      return PollOutcome::kMiss;
    }
  }
  const ParseResult parsed = parse_checked(wire);
  if (!parsed.frame || parsed.frame->type != FrameType::kSensorReport) {
    observe(false);
    return PollOutcome::kMiss;
  }
  observe(true);

  const ReaderMac::UplinkEvent ev = reader.on_report(*parsed.frame);
  if (ev == ReaderMac::UplinkEvent::kDuplicate) ++res.duplicates;

  // ACK downlink (both for fresh and duplicate reports); a lost ACK leaves
  // the node awaiting and the next poll returns a deduped duplicate.
  const Frame ack = reader.make_ack(parsed.frame->addr, parsed.frame->seq);
  ++res.acks_sent;
  res.duration_s += downlink_duration_s(t, ack);
  const bool ack_lost = !transport.ack_delivered(node.address(), rng) ||
                        (fault && fault->wake_missed());
  if (ack_lost) {
    ++res.acks_lost;
  } else {
    node.on_downlink(ack, reading);
  }
  return ev == ReaderMac::UplinkEvent::kDuplicate ? PollOutcome::kDuplicate
                                                  : PollOutcome::kDelivered;
}

InventoryResult run_inventory(const std::vector<std::uint8_t>& population,
                              const InventoryConfig& cfg,
                              fault::FaultInjector* fault, common::Rng& rng,
                              LinkTransport* transport) {
  VAB_STAGE("net.inventory");
  Session session(population, cfg, transport);
  ReaderMac& reader = session.reader;
  std::vector<NodeMac>& nodes = session.nodes;
  LinkTransport& medium = session.medium;

  InventoryResult res;
  res.nodes = population.size();
  std::vector<std::size_t> pending(population.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  while (!pending.empty() && res.polls < cfg.max_polls) {
    VAB_SPAN("net.inventory.round");
    ++res.rounds;
    std::vector<std::size_t> still_pending;
    for (std::size_t idx : pending) {
      NodeMac& node = nodes[idx];
      // Each node reports its current reading; the payload content does not
      // influence the protocol, only the frame length does.
      const SensorReading reading{12.0 + static_cast<double>(node.address()), 101.3,
                                  2900};
      bool done = false;
      bool demoted = false;
      // A miss waits out its backoff, and a demotion its rediscovery, in
      // slots of the rung the missed poll ran at.
      double miss_slot_s = 0.0;
      // Stop-and-wait with a per-report retry budget: first attempt plus
      // cfg.arq.max_retries re-polls with exponential backoff.
      for (std::size_t attempt = 0; attempt <= cfg.arq.max_retries; ++attempt) {
        if (res.polls >= cfg.max_polls) break;
        const mcs::McsEntry* entry = reader.uplink_entry(node.address());
        const PollOutcome out =
            poll_exchange(reader, node, reading, cfg, medium, fault, rng, res);
        if (out == PollOutcome::kDelivered || out == PollOutcome::kDuplicate) {
          // A duplicate means the previous report *was* received: the node
          // is inventoried either way once the ACK finally lands.
          done = true;
          break;
        }
        miss_slot_s = slot_s_at(entry, cfg.timing);
        const ReaderMac::MissAction action = reader.on_miss(node.address());
        ++res.timeouts;
        if (action == ReaderMac::MissAction::kDemote) {
          reader.demote(node.address());
          ++res.demotions;
          demoted = true;
          break;
        }
        if (attempt < cfg.arq.max_retries) {
          ++res.retries;
          res.duration_s +=
              static_cast<double>(reader.backoff_slots(node.address())) * miss_slot_s;
        }
      }
      if (done) {
        ++res.delivered;
      } else if (demoted) {
        // Re-discovery: the node is re-acquired via slotted Aloha at a fixed
        // airtime cost and rejoins the pending set with fresh ARQ state.
        res.duration_s += static_cast<double>(kRediscoveryPenaltySlots) * miss_slot_s;
        ++res.rediscoveries;
        still_pending.push_back(idx);
      } else {
        // Retry budget spent: park the node and come back next round.
        ++res.budget_exhaustions;
        still_pending.push_back(idx);
      }
    }
    pending = std::move(still_pending);
  }

  res.complete = res.delivered == res.nodes;
  session.finish(res);
  return res;
}

double TelemetryResult::goodput_bps() const {
  if (totals.duration_s <= 0.0) return 0.0;
  const double bits =
      static_cast<double>(totals.delivered) * static_cast<double>(kReadingBytes) * 8.0;
  return bits / totals.duration_s;
}

double TelemetryResult::jain_fairness() const {
  if (delivered_per_node.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t d : delivered_per_node) {
    const double x = static_cast<double>(d);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;  // nothing delivered anywhere: vacuously fair
  return sum * sum / (static_cast<double>(delivered_per_node.size()) * sum_sq);
}

TelemetryResult run_telemetry(const std::vector<std::uint8_t>& population,
                              std::size_t cycles, const InventoryConfig& cfg,
                              fault::FaultInjector* fault, common::Rng& rng,
                              LinkTransport* transport) {
  VAB_STAGE("net.telemetry");
  Session session(population, cfg, transport);
  ReaderMac& reader = session.reader;
  std::vector<NodeMac>& nodes = session.nodes;
  LinkTransport& medium = session.medium;

  TelemetryResult tr;
  tr.cycles = cycles;
  tr.delivered_per_node.assign(population.size(), 0);
  InventoryResult& res = tr.totals;
  res.nodes = population.size();

  for (std::size_t c = 0; c < cycles; ++c) {
    VAB_SPAN("net.telemetry.cycle");
    ++res.rounds;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const SensorReading reading{12.0 + static_cast<double>(nodes[i].address()),
                                  101.3, 2900};
      const PollOutcome out =
          poll_exchange(reader, nodes[i], reading, cfg, medium, fault, rng, res);
      if (out == PollOutcome::kDelivered) {
        ++res.delivered;
        ++tr.delivered_per_node[i];
      } else if (out == PollOutcome::kMiss) {
        ++res.timeouts;
      }
    }
  }

  res.complete = true;
  for (std::size_t d : tr.delivered_per_node) res.complete = res.complete && d > 0;
  session.finish(res);
  return tr;
}

}  // namespace vab::net
