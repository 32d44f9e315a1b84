#include "core/system.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "net/mcs/mcs.hpp"
#include "phy/pie.hpp"

namespace vab::core {

NetworkSimulator::NetworkSimulator(sim::Scenario scenario, std::vector<NetworkNode> nodes,
                                   net::MacTiming timing)
    : scenario_(std::move(scenario)), nodes_(std::move(nodes)), timing_(timing) {
  if (nodes_.empty()) throw std::invalid_argument("network needs at least one node");
}

NetworkResult NetworkSimulator::run(std::size_t rounds, std::size_t payload_bytes,
                                    common::Rng& rng) const {
  NetworkResult res;
  res.rounds = rounds;
  res.per_node_delivery.assign(nodes_.size(), 0.0);

  const std::size_t frame_bits = net::wire_size(payload_bytes) * 8;
  const net::mcs::McsEntry uplink =
      net::mcs::McsEntry::from_config(scenario_.phy, scenario_.fec);
  net::MacTiming timing = timing_;
  timing.slot_payload_bytes = payload_bytes;
  timing.uplink_bitrate_bps = scenario_.phy.bitrate_bps;

  // Hostile-channel hook: burst loss / dropout from the scenario's fault
  // plan, drawn from the injector's own stream (empty plan = no injector,
  // bit-identical to the clean simulation).
  std::optional<fault::FaultInjector> injector;
  if (!scenario_.fault.empty()) injector.emplace(scenario_.fault);

  // Round = downlink announcement + guard + one slot per node.
  const double downlink_s = phy::pie_duration_s(frame_bits);
  res.round_duration_s = downlink_s + timing.guard_s +
                         static_cast<double>(nodes_.size()) * timing.slot_duration_s();

  // One link budget per node: geometry is fixed across rounds, only the
  // fade changes.
  std::vector<sim::LinkBudget> budgets;
  budgets.reserve(nodes_.size());
  for (const NetworkNode& node : nodes_) {
    sim::Scenario s = scenario_;
    s.range_m = node.range_m;
    s.node.orientation_rad = node.orientation_rad;
    budgets.emplace_back(std::move(s));
  }
  const common::Hz chip_rate = scenario_.phy.chip_rate();

  std::vector<std::size_t> delivered(nodes_.size(), 0);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const double fade = rng.gaussian(0.0, scenario_.env.fading_sigma_db);
      const common::SnrDb snr = net::mcs::to_reference_scale(
          budgets[i]
              .evaluate(common::Meters{nodes_[i].range_m}, common::Db{fade})
              .snr_chip_db,
          chip_rate);
      const double per = 1.0 - uplink.frame_delivery_prob(snr, frame_bits);
      ++res.packets_attempted;
      const bool impaired =
          injector && (injector->reply_lost() || injector->dropped_out());
      if (!rng.coin(per) && !impaired) {
        ++res.packets_delivered;
        ++delivered[i];
      }
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    res.per_node_delivery[i] =
        rounds ? static_cast<double>(delivered[i]) / static_cast<double>(rounds) : 0.0;

  const double payload_bits = static_cast<double>(payload_bytes) * 8.0;
  res.goodput_bps = res.round_duration_s > 0.0
                        ? static_cast<double>(res.packets_delivered) * payload_bits /
                              (static_cast<double>(rounds) * res.round_duration_s)
                        : 0.0;
  return res;
}

}  // namespace vab::core
