// Fleet-scale inventory simulator: many readers, 1e3..1e5 backscatter nodes,
// one spatially partitioned acoustic medium.
//
// Architecture (one seeded run):
//  - layout: node/reader positions drawn from a dedicated child stream, then
//    frozen into a SpatialGrid (range queries, cell-major results).
//  - assignment: every node attaches to its nearest reader within
//    max_link_range_m; the rest are counted unreachable, never polled.
//  - addressing: MAC addresses are 8-bit, so each reader inventories its
//    nodes in address-reuse *windows* of up to kWindowAddrs links
//    (RFID-session style). Window w of reader r draws exclusively from
//    rng.child(r).child(w) streams.
//  - scheduling: a deterministic event queue interleaves the readers'
//    windows on the virtual clock. A reader polled while another reader is
//    mid-window within interference_range_m sees contention: an SINR
//    penalty per contender in the budget model, and (policy permitting)
//    escalation of those polls to waveform fidelity.
//  - PHY: every poll crosses a FleetLinkTransport (budget fidelity by
//    default, waveform for marginal/contended links) driving the *real*
//    ReaderMac/NodeMac ARQ via net::poll_exchange.
//
// Determinism contract: a run is a pure function of FleetConfig (including
// seed). The event loop is serial; parallelism lives one level up —
// run_fleet_replicates fans independent seeded runs over the parallel
// engine, and per-run child streams make the results invariant to thread
// count. `FleetResult::digest` folds every integer protocol outcome into an
// FNV-1a hash, so bit-identity across thread counts (or machines with the
// same libm) is one comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/anticollision/slotted.hpp"
#include "net/inventory.hpp"
#include "sim/fleet/medium.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/scenario.hpp"

namespace vab::sim::fleet {

/// How a window's contention is modelled.
enum class MacMode : std::uint8_t {
  /// Historical model: a flat SINR penalty per concurrent in-range reader,
  /// applied to every poll of the window by FleetLinkTransport.
  kSinrPenalty,
  /// Slotted Q-style acquisition (net::anticollision) runs first: nodes
  /// contend for slots, collisions resolve via Q-adaptation and capture,
  /// and only *resolved* nodes are ARQ-polled — with the transport's SINR
  /// penalty withheld (the two contention models are mutually exclusive).
  kSlotted,
};

/// Usable MAC addresses per address-reuse window (8-bit space minus the
/// broadcast address, minus headroom for discovery/control addresses).
inline constexpr std::size_t kWindowAddrs = 192;

/// One closed address window, observed on the virtual clock. The window
/// sequence number and close time are pure functions of the config+seed, so
/// a recorded series is as deterministic as the digest itself.
struct WindowPoint {
  std::uint64_t seq = 0;     ///< run-global window sequence (pop order)
  double t_close_s = 0.0;    ///< virtual time when the window's reader idles
  std::uint32_t reader = 0;
  std::uint64_t window = 0;  ///< per-reader address-window index
  std::size_t contenders = 0;
  std::size_t links = 0;     ///< links polled in this window
  std::size_t delivered = 0;
  std::size_t polls = 0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t escalations = 0;  ///< marginal + contention escalations
  std::size_t waveform_polls = 0;
  double airtime_s = 0.0;
};

struct FleetConfig {
  /// Per-link base scenario; each link re-ranges it to its own geometry.
  Scenario scenario{};
  std::size_t n_readers = 1;
  std::size_t n_nodes = 100;
  /// Deployment square side (m). Readers sit on a coarse internal grid,
  /// nodes land uniformly at random.
  double area_m = 400.0;
  /// Spatial-partition cell size (m); <= 0 falls back to 1 m.
  double cell_size_m = 50.0;
  /// Nodes farther than this from every reader are unreachable.
  double max_link_range_m = 250.0;
  /// Reader-to-reader distance within which concurrent windows contend.
  double interference_range_m = 500.0;
  /// SINR penalty per concurrent in-range exchange (dB, budget model).
  /// Applied only in MacMode::kSinrPenalty.
  double contention_penalty_db = 3.0;
  /// Contention model; kSinrPenalty reproduces every historical digest.
  MacMode mac_mode = MacMode::kSinrPenalty;
  /// Slotted-acquisition parameters (MacMode::kSlotted only).
  net::anticollision::QConfig slotted{};
  FidelityPolicy fidelity{};
  /// MAC timing / ARQ / poll budget applied per address window.
  net::InventoryConfig inventory{};
  /// Collect a WindowPoint per closed window into FleetResult::series.
  /// Purely observational: the digest and every protocol outcome are
  /// bit-identical with this on or off.
  bool record_series = false;
};

/// Aggregate outcome of one fleet run. All counters are integers so the
/// digest (and every cross-thread identity check) is FP-free.
struct FleetResult {
  std::size_t readers = 0;
  std::size_t nodes = 0;
  std::size_t assigned = 0;     ///< nodes attached to some reader
  std::size_t unreachable = 0;  ///< nodes out of range of every reader
  std::size_t delivered = 0;    ///< assigned nodes with an accepted report
  std::size_t polls = 0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t duplicates = 0;
  std::size_t acks_sent = 0;
  std::size_t acks_lost = 0;
  std::size_t demotions = 0;
  std::size_t windows = 0;  ///< address windows inventoried
  std::size_t events = 0;   ///< events popped from the queue
  std::size_t contended_windows = 0;
  /// Slotted-MAC accounting (all zero in MacMode::kSinrPenalty; folded into
  /// the digest only in kSlotted so historical digests are untouched).
  std::size_t slot_total = 0;
  std::size_t slot_idle = 0;
  std::size_t slot_success = 0;
  std::size_t slot_collision = 0;
  std::size_t slot_capture = 0;
  std::size_t slotted_unresolved = 0;  ///< contenders unresolved at window end
  /// MCS accounting (all zero without a ladder; digest-folded only then).
  std::size_t mcs_steps_up = 0;
  std::size_t mcs_steps_down = 0;
  std::size_t reconfigures = 0;
  PollTally tally;              ///< fidelity/escalation accounting
  double makespan_s = 0.0;      ///< virtual time when the last reader went idle
  double airtime_s = 0.0;       ///< summed exchange airtime across readers
  double waterfall_snr_db = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over the integer outcomes above
  bool complete = false;     ///< every assigned node delivered
  /// Per-window time series (populated when FleetConfig::record_series is
  /// set); ordered by event-loop pop, i.e. by (virtual time, push seq).
  /// Deliberately excluded from the digest: the digest certifies protocol
  /// outcomes, and must not change when observation is toggled.
  std::vector<WindowPoint> series;
};

/// Deterministic deployment geometry for one run (exposed for tests).
struct FleetLayout {
  std::vector<Position> readers;
  std::vector<Position> nodes;
};

/// Positions drawn from `rng.child(...)` streams; the parent never advances.
FleetLayout make_layout(const FleetConfig& cfg, const common::Rng& rng);

/// One seeded fleet run; pure function of (cfg, rng state). Serial.
FleetResult run_fleet(const FleetConfig& cfg, const common::Rng& rng);

/// `n_runs` independent replicates (run k seeds from rng.child(k)), fanned
/// over the parallel engine; the result order and every result are
/// invariant to the thread count.
std::vector<FleetResult> run_fleet_replicates(const FleetConfig& cfg,
                                              std::size_t n_runs,
                                              const common::Rng& rng);

}  // namespace vab::sim::fleet
