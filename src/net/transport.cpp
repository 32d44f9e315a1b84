#include "net/transport.hpp"

namespace vab::net {

bool IidLossTransport::uplink_delivered(std::uint8_t /*addr*/, bytes& /*wire*/,
                                        common::Rng& rng) {
  // Always draw (even at probability zero): the historical code called
  // rng.coin(reply_loss_prob) unconditionally, and seeded streams must not
  // shift under the refactor.
  return !rng.coin(reply_loss_prob_);
}

bool IidLossTransport::ack_delivered(std::uint8_t /*addr*/, common::Rng& rng) {
  return !rng.coin(ack_loss_prob_);
}

}  // namespace vab::net
