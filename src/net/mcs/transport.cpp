#include "net/mcs/transport.hpp"

namespace vab::net::mcs {

AnalyticMcsTransport::AnalyticMcsTransport(const McsLadder& ladder,
                                           AnalyticMcsConfig cfg)
    : ladder_(&ladder), cfg_(cfg) {
  if (cfg_.default_rung >= ladder.size())
    cfg_.default_rung = ladder.size() - 1;
}

bool AnalyticMcsTransport::uplink_delivered(std::uint8_t addr, bytes& wire,
                                            common::Rng& rng) {
  const McsEntry& e = entry_for(addr);
  double snr = snr_db(addr).raw();
  // Fixed draw order and count regardless of rung: fade first (only when
  // fading is on), then the delivery coin, then the extra erasure coin.
  if (cfg_.fading_sigma_db > 0.0) snr += rng.gaussian(0.0, cfg_.fading_sigma_db);
  last_snr_db_ = common::SnrDb{snr};
  const std::size_t bits = wire.size() * 8;
  bool ok = rng.coin(e.frame_delivery_prob(common::SnrDb{snr}, bits));
  if (cfg_.reply_loss_prob > 0.0 && !rng.coin(1.0 - cfg_.reply_loss_prob))
    ok = false;
  return ok;
}

bool AnalyticMcsTransport::ack_delivered(std::uint8_t /*addr*/, common::Rng& rng) {
  if (cfg_.ack_loss_prob <= 0.0) return true;
  return rng.coin(1.0 - cfg_.ack_loss_prob);
}

void AnalyticMcsTransport::set_uplink_mcs(std::uint8_t addr, const McsEntry* entry) {
  commanded_[addr] = entry;
}

void AnalyticMcsTransport::set_snr_db(std::uint8_t addr, common::SnrDb snr_ref) {
  snr_override_[addr] = snr_ref;
}

common::SnrDb AnalyticMcsTransport::snr_db(std::uint8_t addr) const {
  return snr_override_[addr].value_or(common::SnrDb{cfg_.snr_ref_db});
}

const McsEntry& AnalyticMcsTransport::entry_for(std::uint8_t addr) const {
  if (commanded_[addr] != nullptr) return *commanded_[addr];
  return ladder_->rung(cfg_.default_rung);
}

}  // namespace vab::net::mcs
