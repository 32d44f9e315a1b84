#include "core/node.hpp"

#include "net/frame.hpp"
#include "phy/pie.hpp"

namespace vab::core {

VabNode::VabNode(NodeConfig cfg)
    : cfg_(cfg),
      array_(cfg.array),
      modulator_(cfg.phy),
      mac_(cfg.address, net::MacTiming{}) {}

std::optional<ScheduledUplink> VabNode::handle_downlink(const rvec& envelope,
                                                        double fs_hz) {
  const auto bits = phy::pie_decode_envelope(envelope, fs_hz);
  if (!bits) return std::nullopt;
  const auto frame = net::parse_bits(*bits);
  if (!frame) return std::nullopt;

  const auto response = mac_.on_downlink(*frame, reading_);
  if (!response) return std::nullopt;

  ScheduledUplink up;
  up.frame = response->frame;
  up.tx_offset_s = response->tx_offset_s;
  up.switch_states = modulator_.switch_waveform(net::serialize_bits(response->frame));
  return up;
}

}  // namespace vab::core
