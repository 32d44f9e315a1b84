// The MAC <-> medium seam: how a frame crosses the water.
//
// ReaderMac/NodeMac speak frames; whether a frame survives the trip is the
// medium's business. LinkTransport abstracts that decision so the same MAC
// state machines run over any channel model — the historical i.i.d. loss
// coins (IidLossTransport, the clean-channel floor of `run_inventory`), a
// link-budget SNR -> McsEntry delivery curve -> one coin, or the full
// waveform pipeline.
// The fleet simulator (src/sim/fleet) plugs both abstracted and waveform
// fidelities in through this interface and switches between them per link.
//
// Determinism contract: a transport draws only from the `rng` handed to each
// call (or from streams it derived from its own construction seed), never
// from hidden state, so a fixed call sequence yields fixed outcomes.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace vab::net {

namespace mcs {
struct McsEntry;
}  // namespace mcs

/// Decides the fate of the uplink and ACK legs of one reader<->node
/// exchange. The query downlink rides the reader's full-power carrier and
/// is always delivered.
class LinkTransport {
 public:
  virtual ~LinkTransport() = default;

  /// True when the node's report survives the uplink. A transport may
  /// corrupt `wire` in place instead of dropping it (bit errors from a
  /// waveform decode); the reader's CRC then classifies the damage.
  virtual bool uplink_delivered(std::uint8_t addr, bytes& wire, common::Rng& rng) = 0;

  /// True when the reader's ACK downlink reaches the node.
  virtual bool ack_delivered(std::uint8_t addr, common::Rng& rng) = 0;

  /// Rate-adaptation seam: the MAC announces the MCS rung the next uplink
  /// from `addr` will use (nullptr = the model's fixed default). SNR-aware
  /// transports evaluate that rung's delivery curve; the base class ignores
  /// the hint so legacy models are unaffected.
  virtual void set_uplink_mcs(std::uint8_t addr, const mcs::McsEntry* entry) {
    (void)addr;
    (void)entry;
  }

  /// Link SNR (reference scale) the most recent uplink_delivered call
  /// for any address was evaluated at, when the model measures one. The
  /// MAC feeds this into per-node rate controllers; loss-coin models return
  /// nullopt and the controller falls back to delivery-outcome feedback.
  virtual std::optional<common::SnrDb> last_uplink_snr_db() const {
    return std::nullopt;
  }
};

/// The historical clean-channel model: independent loss coins per leg, with
/// the downlink assumed reliable. `run_inventory` builds one of these from
/// InventoryConfig::{reply_loss_prob, ack_loss_prob} when no transport is
/// supplied; draw order matches the pre-seam inline code exactly, so every
/// seeded inventory outcome is unchanged.
class IidLossTransport final : public LinkTransport {
 public:
  IidLossTransport(double reply_loss_prob, double ack_loss_prob)
      : reply_loss_prob_(reply_loss_prob), ack_loss_prob_(ack_loss_prob) {}

  bool uplink_delivered(std::uint8_t addr, bytes& wire, common::Rng& rng) override;
  bool ack_delivered(std::uint8_t addr, common::Rng& rng) override;

 private:
  double reply_loss_prob_;
  double ack_loss_prob_;
};

}  // namespace vab::net
