// Reader-driven poll-and-ARQ MAC.
//
// Backscatter nodes cannot carrier-sense (they have no receiver chain beyond
// an envelope detector) and cannot initiate transmissions (they need the
// reader's carrier to reflect). The MAC is therefore reader-driven, like
// RFID inventory: the reader polls one address at a time (kQuery, PIE
// downlink), the node backscatters a sensor report (kSensorReport, FM0
// uplink) one guard time after the query ends, and the reader ACKs it (kAck).
//
// Delivery guarantees ride on a stop-and-wait ARQ per node: the reader ACKs
// every decoded report, the node advances its sequence number only on ACK
// and otherwise retransmits the same seq, and the reader dedupes on seq so a
// lost ACK cannot double-count a reading. Misses are retried with
// exponential backoff up to a budget; a node missing too many consecutive
// polls is demoted back to discovery instead of stalling the inventory.
// Delivery counts live with the caller (net::InventoryResult) and in the
// net.arq.* counters; the MAC keeps only the state the protocol needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "common/types.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/mcs/adapt.hpp"
#include "obs/metrics.hpp"

namespace vab::net {

struct MacTiming {
  double downlink_bitrate_bps = 80.0;  ///< PIE is slow; nodes decode passively
  double uplink_bitrate_bps = 500.0;
  /// Guard time between downlink end and the first uplink slot, covering the
  /// worst-case round-trip propagation (e.g. 2*500 m / 1500 m/s).
  double guard_s = 0.7;
  std::size_t slot_payload_bytes = 12;  ///< frame payload budget per slot

  /// Uplink slot duration in seconds: McsEntry::slot_duration of uncoded
  /// FM0 at uplink_bitrate_bps.
  double slot_duration_s() const;
};

/// Backoff after the first miss, in uplink slots; it doubles per further
/// consecutive miss and saturates at kBackoffCeilingSlots.
inline constexpr std::size_t kBackoffBaseSlots = 1;
inline constexpr std::size_t kBackoffCeilingSlots = 8;

/// Retransmission policy for the reader-driven ARQ.
struct ArqConfig {
  std::size_t max_retries = 6;          ///< extra attempts per report after the first
  std::size_t demote_after_misses = 12;  ///< consecutive misses before re-discovery
};

/// Node-side MAC state machine: consumes parsed downlink frames, produces
/// uplink frames scheduled at an offset from the downlink end.
class NodeMac {
 public:
  NodeMac(std::uint8_t address, MacTiming timing);

  struct Response {
    Frame frame;
    double tx_offset_s = 0.0;  ///< when to start backscattering, after downlink end
  };

  /// Handles a downlink frame; returns the uplink response, if any. A
  /// repeated query without an intervening ACK retransmits the same seq
  /// (stop-and-wait: the reader dedupes duplicates on it).
  std::optional<Response> on_downlink(const Frame& downlink,
                                      const SensorReading& reading);

  std::uint8_t address() const { return addr_; }
  /// True while a report is outstanding (sent but not yet ACKed).
  bool awaiting_ack() const { return awaiting_ack_; }

  /// Opts this node into MCS commands: queries may carry a rung index, and
  /// the node reconfigures its modem/FEC state when the commanded rung
  /// changes (the dragonradio reconfigure-on-change pattern). Without this
  /// call, MCS bytes in a query are ignored and behaviour is unchanged.
  void enable_mcs(const mcs::McsLadder& ladder);
  bool mcs_enabled() const { return ladder_ != nullptr; }
  std::size_t current_rung() const { return rung_; }
  /// Modem/FEC reconfigurations performed (counted only on rung *change*).
  std::size_t reconfigures() const { return reconfigures_; }
  const phy::PhyConfig& phy_config() const { return phy_cfg_; }

 private:
  void reconfigure(std::size_t rung);

  std::uint8_t addr_;
  MacTiming timing_;
  std::uint8_t seq_ = 0;
  bool awaiting_ack_ = false;
  const mcs::McsLadder* ladder_ = nullptr;
  std::size_t rung_ = 0;
  std::size_t reconfigures_ = 0;
  phy::PhyConfig phy_cfg_;
  phy::FecConfig fec_cfg_;
};

/// Reader-side MAC: issues queries, ACKs reports, dedupes retransmissions
/// on seq and schedules retries with exponential backoff.
class ReaderMac {
 public:
  explicit ReaderMac(MacTiming timing, ArqConfig arq = {});

  /// Downlink frame polling a single node.
  Frame make_query(std::uint8_t addr);
  /// Downlink frame acknowledging receipt of `seq` from `addr`.
  Frame make_ack(std::uint8_t addr, std::uint8_t seq);

  /// How an uplink event advanced the per-node ARQ state.
  enum class UplinkEvent : std::uint8_t {
    kDelivered,  ///< new report accepted (send ACK)
    kDuplicate,  ///< same seq as an already-ACKed report (re-ACK, don't count)
    kCorrupt,    ///< CRC failure: treated as a miss
  };

  /// What the reader should do after a miss (timeout or corrupt reply).
  enum class MissAction : std::uint8_t {
    kRetry,   ///< poll again after `backoff_slots()` slots
    kDemote,  ///< give the node up to re-discovery
  };

  /// Classifies a decoded report frame against the ARQ state and returns
  /// the event; on kDelivered/kDuplicate the caller sends `make_ack`.
  UplinkEvent on_report(const Frame& report);

  /// Registers a miss (reply timeout or CRC failure) for `addr` and
  /// advances retries/backoff. Returns the action the schedule should take.
  MissAction on_miss(std::uint8_t addr);

  /// Current backoff delay for `addr`, in uplink slots (exponential in the
  /// consecutive-miss count, saturating at the ceiling).
  std::size_t backoff_slots(std::uint8_t addr) const;

  /// Forgets ARQ state for a demoted node (it will be re-discovered).
  void demote(std::uint8_t addr);

  const MacTiming& timing() const { return timing_; }
  const ArqConfig& arq() const { return arq_; }

  /// The reader's receive buffer: each poll serializes the node's report
  /// into it, the transport and fault hooks act on it, and the reader
  /// validates it in place. Reused across polls, so a steady-state poll
  /// does not allocate.
  bytes& wire_buffer() { return wire_; }

  /// Turns on per-node rate adaptation: queries carry the commanded rung,
  /// `observe_link` feeds each node's RateController, and `uplink_entry`
  /// exposes the rung the transport should evaluate. Without this call the
  /// reader is fixed-rate and the wire format is unchanged.
  void enable_mcs(const mcs::McsLadder& ladder, mcs::AdaptConfig adapt = {});
  bool mcs_enabled() const { return ladder_ != nullptr; }
  /// Rung currently commanded for `addr` (creates the controller lazily at
  /// the adapt config's start rung).
  std::size_t rung_of(std::uint8_t addr);
  /// Ladder entry for `addr`'s next uplink, or nullptr when MCS is off.
  const mcs::McsEntry* uplink_entry(std::uint8_t addr);
  /// Feeds one poll outcome (and the transport's SNR measurement, if any)
  /// into `addr`'s rate controller; steps the rung when the controller
  /// crosses a threshold. Per-rung residency and step counts land in obs.
  void observe_link(std::uint8_t addr, std::optional<common::SnrDb> snr_ref,
                    bool delivered);
  std::size_t mcs_steps_up() const { return mcs_steps_up_; }
  std::size_t mcs_steps_down() const { return mcs_steps_down_; }
  /// Polls observed per rung index, across all nodes.
  const std::map<std::size_t, std::size_t>& rung_polls() const {
    return rung_polls_;
  }

 private:
  struct ArqState {
    bool have_seq = false;
    std::uint8_t last_seq = 0;        ///< last ACKed sequence number
    std::size_t consecutive_misses = 0;
  };

  mcs::RateController& controller_for(std::uint8_t addr);

  MacTiming timing_;
  ArqConfig arq_;
  std::uint8_t seq_ = 0;
  std::array<ArqState, 256> arq_state_{};  ///< indexed by node address
  bytes wire_;
  const mcs::McsLadder* ladder_ = nullptr;
  mcs::AdaptConfig adapt_;
  std::map<std::uint8_t, mcs::RateController> controllers_;
  std::map<std::size_t, std::size_t> rung_polls_;
  /// net.mcs.rung_polls{rung=<name>} per rung index, resolved on the rung's
  /// first poll so unused rungs never appear as zero-valued series.
  std::array<std::optional<obs::Counter>, mcs::kMaxRungs> rung_poll_ctrs_;
  std::size_t mcs_steps_up_ = 0;
  std::size_t mcs_steps_down_ = 0;
};

}  // namespace vab::net
