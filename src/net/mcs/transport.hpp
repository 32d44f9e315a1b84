// Analytic SNR-driven LinkTransport over an McsLadder.
//
// The historical IidLossTransport flips fixed coins; this model instead
// evaluates the *commanded rung's* frame-delivery curve at the link's SNR
// (reference scale), so the same transport exercises every rung of the
// ladder and feeds measured SNR back to the MAC's rate controllers. It is
// the i.i.d.-model counterpart of the fleet transport's budget fidelity:
// per-uplink log-normal fading around a per-address mean SNR, one coin per
// uplink against the analytic delivery probability.
//
// Determinism: draws come only from the `rng` handed to each call — one
// gaussian (when fading_sigma_db > 0) then one coin per uplink, one coin
// per ACK when ack_loss_prob > 0. The draw count per call is independent of
// the commanded rung, so fault schedules line up across rungs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/mcs/mcs.hpp"
#include "net/transport.hpp"

namespace vab::net::mcs {

struct AnalyticMcsConfig {
  double snr_ref_db = 6.0;     ///< default link SNR (reference scale)
  double fading_sigma_db = 0.0;///< per-uplink log-normal fade spread
  /// Rung evaluated when the MAC has not commanded one via set_uplink_mcs
  /// (fixed-rate baselines use this).
  std::size_t default_rung = McsLadder::kPaperRung;
  double reply_loss_prob = 0.0;///< extra i.i.d. uplink erasure (ARQ tests)
  double ack_loss_prob = 0.0;  ///< i.i.d. ACK erasure (ARQ tests)
};

class AnalyticMcsTransport final : public LinkTransport {
 public:
  AnalyticMcsTransport(const McsLadder& ladder, AnalyticMcsConfig cfg);

  bool uplink_delivered(std::uint8_t addr, bytes& wire, common::Rng& rng) override;
  bool ack_delivered(std::uint8_t addr, common::Rng& rng) override;

  void set_uplink_mcs(std::uint8_t addr, const McsEntry* entry) override;
  std::optional<common::SnrDb> last_uplink_snr_db() const override {
    return last_snr_db_;
  }

  /// Overrides the link SNR for one address (heterogeneous populations).
  void set_snr_db(std::uint8_t addr, common::SnrDb snr_ref);

  common::SnrDb snr_db(std::uint8_t addr) const;
  const McsEntry& entry_for(std::uint8_t addr) const;

 private:
  const McsLadder* ladder_;
  AnalyticMcsConfig cfg_;
  std::array<std::optional<common::SnrDb>, 256> snr_override_{};
  std::array<const McsEntry*, 256> commanded_{};
  std::optional<common::SnrDb> last_snr_db_;
};

}  // namespace vab::net::mcs
