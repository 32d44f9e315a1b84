// VabNode — the paper's battery-free sensor node, end to end:
// PIE downlink decode (envelope detector) -> MAC -> sensor payload ->
// FM0 backscatter uplink via the Van Atta array.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "net/mac.hpp"
#include "phy/modem.hpp"
#include "vanatta/array.hpp"

namespace vab::core {

struct NodeConfig {
  std::uint8_t address = 1;
  vanatta::VanAttaConfig array{};
  phy::PhyConfig phy{};
};

/// Result of handling one downlink: the uplink switch waveform to apply and
/// when to start it (seconds after the end of the downlink).
struct ScheduledUplink {
  bitvec switch_states;      ///< per-sample modulator state at phy.fs_hz
  double tx_offset_s = 0.0;
  net::Frame frame;          ///< what was sent (for bookkeeping/tests)
};

class VabNode {
 public:
  explicit VabNode(NodeConfig cfg);

  /// Feeds the downlink envelope (output of the node's passive envelope
  /// detector, arbitrary scale) and produces a scheduled uplink if the
  /// command addressed this node.
  std::optional<ScheduledUplink> handle_downlink(const rvec& envelope, double fs_hz);

  void set_sensor_reading(const net::SensorReading& r) { reading_ = r; }

  std::uint8_t address() const { return cfg_.address; }
  const NodeConfig& config() const { return cfg_; }
  const vanatta::VanAttaArray& array() const { return array_; }

 private:
  NodeConfig cfg_;
  vanatta::VanAttaArray array_;
  phy::BackscatterModulator modulator_;
  net::NodeMac mac_;
  net::SensorReading reading_{};
};

}  // namespace vab::core
