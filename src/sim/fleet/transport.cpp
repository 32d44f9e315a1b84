#include "sim/fleet/transport.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"

namespace vab::sim::fleet {

FleetLinkTransport::FleetLinkTransport(const Scenario& base,
                                       const FidelityPolicy& policy,
                                       common::Db contention_penalty,
                                       std::size_t report_bits)
    : base_(base),
      policy_(policy),
      contention_penalty_db_(contention_penalty.raw()),
      entry_(net::mcs::McsEntry::from_config(base.phy, base.fec)),
      waterfall_snr_db_(entry_.snr_for_delivery(0.5, report_bits).raw()),
      budget_(base) {}

void FleetLinkTransport::begin_window(std::vector<LinkInfo> links,
                                      common::Rng wave_stream) {
  links_ = std::move(links);
  // The budget emits chip SNR at the scenario's chip rate; the delivery
  // curves and the waterfall take the reference scale.
  for (LinkInfo& l : links_)
    l.snr_db = net::mcs::to_reference_scale(
        budget_.evaluate(common::Meters{l.range_m}).snr_chip_db,
        base_.phy.chip_rate());
  wave_ = std::vector<std::unique_ptr<WaveLink>>(links_.size());
  mcs_.assign(links_.size(), nullptr);
  wave_stream_ = wave_stream;
  contention_ = 0;
}

void FleetLinkTransport::set_uplink_mcs(std::uint8_t addr,
                                        const net::mcs::McsEntry* entry) {
  if (addr < mcs_.size()) mcs_[addr] = entry;
}

FleetLinkTransport::WaveLink& FleetLinkTransport::wave_link(std::uint8_t addr) {
  std::unique_ptr<WaveLink>& slot = wave_[addr];
  if (!slot) {
    if (!wave_setup_) wave_setup_.emplace(base_);
    // One draw stream per (run, node): escalation order cannot perturb other
    // links, and the parent window stream is never advanced.
    slot = std::make_unique<WaveLink>(
        wave_setup_->at_range(common::Meters{links_[addr].range_m}),
        wave_stream_.child(links_[addr].node_id));
  }
  return *slot;
}

Fidelity FleetLinkTransport::choose_fidelity(double snr_eff_db) {
  bool want_waveform = false;
  switch (policy_.mode) {
    case FidelityMode::kBudgetOnly:
      break;
    case FidelityMode::kWaveformOnly:
      want_waveform = true;
      break;
    case FidelityMode::kAdaptive: {
      const bool marginal =
          std::abs(snr_eff_db - waterfall_snr_db_) <= policy_.escalate_margin_db;
      const bool contended = contention_ > 0;
      if (marginal || contended) {
        want_waveform = true;
        if (marginal) ++tally_.escalations_marginal;
        if (contended) ++tally_.escalations_contention;
      }
      break;
    }
  }
  if (want_waveform && tally_.waveform_polls >= policy_.max_waveform_polls) {
    ++tally_.waveform_cap_hits;
    want_waveform = false;
  }
  return want_waveform ? Fidelity::kWaveform : Fidelity::kBudget;
}

bool FleetLinkTransport::ack_delivered(std::uint8_t addr, common::Rng& rng) {
  // The ACK rides the projector carrier, ~90 dB louder than the backscatter
  // return; fleet-scale loss is concentrated on the uplink.
  (void)addr;
  (void)rng;
  return true;
}

bool FleetLinkTransport::uplink_delivered(std::uint8_t addr, bytes& wire,
                                          common::Rng& rng) {
  if (addr >= links_.size())
    throw std::out_of_range("poll outside the active address window");
  const LinkInfo& link = links_[addr];
  if (contention_ > 0) ++tally_.contended_polls;

  // The SINR penalty for concurrent in-range exchanges applies to both
  // fidelities' escalation decision; the budget path also folds it into the
  // delivery draw (the waveform path models interference via its own noise).
  // In slotted-MAC mode the penalty is withheld: contention has already been
  // resolved per slot, and double-charging it here was the seam this flag
  // closes.
  const double penalty_db =
      slotted_mode_ ? 0.0
                    : static_cast<double>(contention_) * contention_penalty_db_;
  const double snr_eff = link.snr_db.raw() - penalty_db;
  const net::mcs::McsEntry* entry = mcs_[addr];
  // The waveform pipeline runs the scenario's fixed PHY config, so a
  // commanded rung (whose curve the MAC is adapting against) pins budget
  // fidelity instead of silently decoding at the wrong rate.
  last_fidelity_ = entry != nullptr ? Fidelity::kBudget : choose_fidelity(snr_eff);

  if (last_fidelity_ == Fidelity::kBudget) {
    ++tally_.budget_polls;
    static const obs::Counter polls = obs::counter("fleet.polls_budget");
    polls.add(1);
    const common::SnrDb snr{snr_eff + rng.gaussian(0.0, base_.env.fading_sigma_db)};
    last_snr_db_ = snr;
    return rng.coin((entry != nullptr ? *entry : entry_)
                        .frame_delivery_prob(snr, wire.size() * 8));
  }

  ++tally_.waveform_polls;
  static const obs::Counter polls = obs::counter("fleet.polls_waveform");
  polls.add(1);
  last_snr_db_ = common::SnrDb{snr_eff};  // budget estimate; waveform draw implicit
  WaveLink& wl = wave_link(addr);
  const bitvec tx_bits = phy::bits_from_bytes(wire);
  const WaveformTrialResult trial = wl.sim.run_trial(tx_bits);
  if (trial.frame_ok) return true;
  if (!trial.demod.sync_found) return false;  // no reply detected at all
  // Sync but bit errors: hand the damaged bits back on the wire and let the
  // reader's CRC classify them, exactly as the single-link pipeline does.
  const phy::FrameCodec codec(base_.fec);
  if (trial.demod.bits.size() != codec.coded_size(tx_bits.size())) return false;
  std::size_t corrected = 0;
  wire = phy::bytes_from_bits(codec.decode(trial.demod.bits, tx_bits.size(), corrected));
  return true;
}

}  // namespace vab::sim::fleet
