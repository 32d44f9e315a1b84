// Reader-driven ARQ inventory: collect one ACKed sensor report from every
// node, under an impaired channel.
//
// This is the protocol-level engine behind the hostile-channel workload: it
// drives real NodeMac/ReaderMac state machines (serialized frames, CRC,
// seq-deduped stop-and-wait ARQ) over an abstract lossy channel, with all
// impairments supplied by a nullable fault::FaultInjector. The reader polls
// pending nodes round-robin; every miss retries with exponential backoff up
// to a per-report budget, and a node missing too many consecutive polls is
// demoted to re-discovery (costed as extra airtime) instead of stalling the
// whole inventory. Deterministic: one Rng for the clean channel, one
// injector stream for the faults, no wall-clock anywhere.
//
// The medium is pluggable: every leg of the exchange crosses a
// net::LinkTransport, so the same ARQ engine runs over the i.i.d. loss
// floor (the default), a link-budget abstraction, or the waveform pipeline
// (see src/sim/fleet).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "net/mac.hpp"
#include "net/mcs/adapt.hpp"
#include "net/transport.hpp"

namespace vab::net {

/// Airtime charged, in uplink slots, when a demoted node is re-acquired via
/// discovery.
inline constexpr std::size_t kRediscoveryPenaltySlots = 4;

struct InventoryConfig {
  MacTiming timing{};
  ArqConfig arq{};
  /// Clean-channel i.i.d. loss probabilities (fading floor); burst loss and
  /// frame corruption come from the fault injector.
  double reply_loss_prob = 0.0;  ///< uplink report eaten by the channel
  double ack_loss_prob = 0.0;    ///< downlink ACK eaten by the channel
  /// Hard bound on reader polls; an inventory that cannot complete (e.g.
  /// a permanently dark node) terminates here with complete = false.
  std::size_t max_polls = 4096;
  /// Rate adaptation: when non-null, reader and nodes run the MCS ladder
  /// (queries carry the commanded rung, uplink airtime and the transport's
  /// delivery curve follow it). Null keeps every legacy code path — and
  /// every seeded outcome — bit-identical.
  const mcs::McsLadder* ladder = nullptr;
  mcs::AdaptConfig adapt{};
};

struct InventoryResult {
  std::size_t nodes = 0;
  std::size_t delivered = 0;       ///< nodes whose report was accepted
  std::size_t polls = 0;           ///< QUERY frames sent
  std::size_t retries = 0;         ///< re-polls after a miss
  std::size_t timeouts = 0;        ///< reply windows that expired or failed CRC
  std::size_t duplicates = 0;      ///< retransmissions deduped by seq
  std::size_t acks_sent = 0;
  std::size_t acks_lost = 0;
  std::size_t demotions = 0;       ///< nodes handed back to discovery
  std::size_t rediscoveries = 0;   ///< demoted nodes re-acquired
  std::size_t budget_exhaustions = 0;  ///< per-report retry budgets spent
  std::size_t rounds = 0;          ///< passes over the pending list
  double duration_s = 0.0;         ///< simulated airtime
  bool complete = false;           ///< every node delivered
  /// MCS accounting (all zero when InventoryConfig::ladder is null).
  std::size_t mcs_steps_up = 0;
  std::size_t mcs_steps_down = 0;
  std::size_t reconfigures = 0;    ///< node-side modem/FEC reconfigurations
  std::map<std::size_t, std::size_t> rung_polls;  ///< polls per rung index

  double delivery_ratio() const {
    return nodes ? static_cast<double>(delivered) / static_cast<double>(nodes) : 0.0;
  }
};

/// Outcome of one query -> report -> ACK exchange with one node.
enum class PollOutcome : std::uint8_t {
  kDelivered,  ///< fresh report accepted and counted
  kDuplicate,  ///< retransmission deduped by seq (node is inventoried)
  kMiss,       ///< no decodable reply inside the slot window
};

/// Runs one poll exchange between `reader` and `node` over `transport`,
/// accumulating protocol counters (polls, duplicates, ACK accounting) and
/// airtime into `res`. This is the unit step of `run_inventory` and
/// `run_telemetry`, and through them of every fleet window; `fault` may be
/// null.
PollOutcome poll_exchange(ReaderMac& reader, NodeMac& node,
                          const SensorReading& reading, const InventoryConfig& cfg,
                          LinkTransport& transport, fault::FaultInjector* fault,
                          common::Rng& rng, InventoryResult& res);

/// Runs the ARQ inventory over `population` (node addresses). `fault` may
/// be null; with a null hook (or an empty plan) and zero loss probabilities
/// the inventory completes in exactly one poll per node. When `transport`
/// is null the clean channel is the historical i.i.d. loss model built
/// from cfg.{reply_loss_prob, ack_loss_prob}.
InventoryResult run_inventory(const std::vector<std::uint8_t>& population,
                              const InventoryConfig& cfg,
                              fault::FaultInjector* fault, common::Rng& rng,
                              LinkTransport* transport = nullptr);

/// Multi-cycle telemetry collection: the rate-adaptation workload. One
/// ReaderMac and one NodeMac per address persist across `cycles` polling
/// sweeps (one poll per node per cycle, no intra-cycle retries — ARQ
/// dedupe still recovers lost ACKs across cycles), so SNR/delivery EWMAs
/// accumulate and rungs actually move. Fixed-rate runs use a null
/// cfg.ladder; goodput and per-node delivery feed the EXT-6 fairness gate.
struct TelemetryResult {
  InventoryResult totals;  ///< protocol counters summed over all cycles
  std::size_t cycles = 0;
  std::vector<std::size_t> delivered_per_node;  ///< indexed like population

  /// Application goodput: ACKed fresh readings x payload bits over airtime.
  double goodput_bps() const;
  /// Jain fairness index over per-node delivered counts (1 = perfectly
  /// fair, 1/n = one node starves the rest).
  double jain_fairness() const;
};

TelemetryResult run_telemetry(const std::vector<std::uint8_t>& population,
                              std::size_t cycles, const InventoryConfig& cfg,
                              fault::FaultInjector* fault, common::Rng& rng,
                              LinkTransport* transport = nullptr);

}  // namespace vab::net
