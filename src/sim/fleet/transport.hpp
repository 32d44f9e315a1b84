// Fleet-side link transports: both PHY fidelities behind the
// net::LinkTransport seam, plus the policy that switches between them.
//
// - Budget fidelity (the fleet default): per poll, draw lognormal shadowing
//   around the calibrated link budget's SNR at the link's range, evaluate
//   the scenario's McsEntry frame-delivery curve for the actual wire length,
//   and flip one coin. Cost: nanoseconds per poll, so 100k-node fleets are
//   feasible.
// - Waveform fidelity: the report's wire bits ride the full pipeline
//   (projector carrier, multipath, array reflection, blast, Wenz noise,
//   SIC, demod); decode errors corrupt the wire in place and the reader's
//   CRC classifies the damage. Cost: tens of ms per poll, so the policy
//   escalates only marginal or contended links and a shared cap bounds the
//   per-run spend.
//
// Escalation is observable: per-transport tallies feed the fleet result and
// the obs fleet.* counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/mcs/mcs.hpp"
#include "net/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace vab::sim::fleet {

/// Which PHY model carried a poll.
enum class Fidelity : std::uint8_t { kBudget, kWaveform };

enum class FidelityMode : std::uint8_t {
  kAdaptive,      ///< budget by default, waveform for marginal/contended links
  kBudgetOnly,    ///< never escalate (fastest; large-fleet default)
  kWaveformOnly,  ///< every poll through the waveform pipeline (validation)
};

struct FidelityPolicy {
  /// Adaptive mode also escalates every link polled while another in-range
  /// reader is mid-exchange.
  FidelityMode mode = FidelityMode::kAdaptive;
  /// A link is "marginal" when its effective SNR sits within this margin of
  /// the waterfall SNR (the SNR where frame delivery crosses 50%).
  double escalate_margin_db = 2.0;
  /// Shared per-run budget of waveform polls; past it, escalation falls
  /// back to budget fidelity (counted, never silent).
  std::size_t max_waveform_polls = 128;
};

/// Per-run escalation accounting, merged into FleetResult.
struct PollTally {
  std::size_t budget_polls = 0;
  std::size_t waveform_polls = 0;
  std::size_t escalations_marginal = 0;
  std::size_t escalations_contention = 0;
  std::size_t waveform_cap_hits = 0;
  std::size_t contended_polls = 0;
};

/// LinkTransport over one reader's active address window. Local MAC address
/// = index into the window's link table; each link carries its own range,
/// cached budget SNR, and (lazily, on escalation) a waveform simulator fed
/// by a per-link child stream.
class FleetLinkTransport final : public net::LinkTransport {
 public:
  struct LinkInfo {
    std::uint32_t node_id = 0;  ///< global id (seeds the wave stream)
    double range_m = 1.0;
    /// Filled by begin_window: budget chip SNR at range, reference scale.
    common::SnrDb snr_db{0.0};
  };

  /// The budget path evaluates the scenario's own operating point
  /// (McsEntry::from_config of its PHY/FEC). `report_bits` is the
  /// representative report wire length used to place the waterfall SNR
  /// (delivery = 50%) for the escalation margin.
  FleetLinkTransport(const Scenario& base, const FidelityPolicy& policy,
                     common::Db contention_penalty, std::size_t report_bits);

  /// Installs the links of the next address window (index = local addr) and
  /// the stream that seeds per-link waveform draws.
  void begin_window(std::vector<LinkInfo> links, common::Rng wave_stream);

  /// Number of other readers mid-exchange in interference range of the node
  /// being polled next; reset before every poll by the fleet engine.
  void set_contention(std::size_t contenders) { contention_ = contenders; }

  /// Declares that a real slotted MAC arbitrates this window's contention.
  /// The flat per-contender SINR penalty and the slotted MAC model the same
  /// physics (concurrent in-range exchanges), so they are mutually
  /// exclusive: in slotted mode the penalty is NOT applied — collisions are
  /// resolved per slot upstream — while contended polls are still tallied
  /// and still eligible for waveform escalation.
  void set_slotted_mode(bool on) { slotted_mode_ = on; }
  bool slotted_mode() const { return slotted_mode_; }

  bool uplink_delivered(std::uint8_t addr, bytes& wire, common::Rng& rng) override;
  bool ack_delivered(std::uint8_t addr, common::Rng& rng) override;

  /// MCS seam: a commanded rung reroutes the budget path through that
  /// rung's analytic delivery curve (the waveform pipeline models only the
  /// scenario's fixed PHY, so MCS-commanded polls pin budget fidelity).
  void set_uplink_mcs(std::uint8_t addr, const net::mcs::McsEntry* entry) override;
  std::optional<common::SnrDb> last_uplink_snr_db() const override {
    return last_snr_db_;
  }

  /// The scenario's operating point: the budget path's curve whenever no
  /// rung is commanded.
  const net::mcs::McsEntry& uplink_entry() const { return entry_; }
  const PollTally& tally() const { return tally_; }
  Fidelity last_fidelity() const { return last_fidelity_; }
  common::SnrDb waterfall_snr_db() const { return common::SnrDb{waterfall_snr_db_}; }
  /// Active window's links with their budget SNRs (filled by begin_window).
  const std::vector<LinkInfo>& links() const { return links_; }

 private:
  /// One escalated link's waveform state: its set-up (the transport's PHY
  /// chain at the link's range), draw stream and simulator.
  struct WaveLink {
    WaveformSetup setup;
    common::Rng rng;
    WaveformSimulator sim;
    WaveLink(WaveformSetup s, common::Rng stream)
        : setup(std::move(s)), rng(stream), sim(setup, rng) {}
  };

  // Private helper in the raw interior domain (the penalty arithmetic
  // happens before any wrapping back into SnrDb).
  // vab-tidy: allow(unit-suffix-double-param) private raw-domain helper
  Fidelity choose_fidelity(double snr_eff_db);
  WaveLink& wave_link(std::uint8_t addr);

  Scenario base_;
  FidelityPolicy policy_;
  double contention_penalty_db_;
  net::mcs::McsEntry entry_;
  double waterfall_snr_db_;
  LinkBudget budget_;
  std::vector<LinkInfo> links_;
  /// The scenario's waveform set-up, built on the first waveform poll; every
  /// link's set-up shares its PHY chain.
  std::optional<WaveformSetup> wave_setup_;
  std::vector<std::unique_ptr<WaveLink>> wave_;  ///< lazy, per window addr
  std::vector<const net::mcs::McsEntry*> mcs_;   ///< commanded rung, per addr
  common::Rng wave_stream_{0};
  std::size_t contention_ = 0;
  bool slotted_mode_ = false;
  PollTally tally_;
  Fidelity last_fidelity_ = Fidelity::kBudget;
  std::optional<common::SnrDb> last_snr_db_;
};

}  // namespace vab::sim::fleet
