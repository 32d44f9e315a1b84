// Per-node rate adaptation over an McsLadder.
//
// The controller follows the dragonradio reconfigure-on-change discipline:
// it folds link observations into EWMAs and only *proposes* a rung change
// when the evidence crosses a hysteresis band and a minimum dwell has
// elapsed — the caller (ReaderMac) applies the change, and the node's
// modem/FEC state reconfigures only when the commanded rung differs from
// the current one.
//
// Two feedback paths drive the same rung state:
//  - SNR path (preferred): the transport reports a per-poll link SNR on the
//    reference scale; the EWMA is compared against per-rung thresholds
//    derived from the ladder's analytic delivery curves. Step down when the
//    EWMA falls below the SNR where the *current* rung sustains
//    `kTargetDelivery`; step up when it clears the SNR where the *next*
//    rung sustains it, plus `kHysteresisDb`. The gap between those
//    thresholds is what prevents rung flapping under constant SNR.
//  - Outcome path (fallback, e.g. over the historical i.i.d. model): a
//    delivery EWMA (a BER proxy) is compared against fixed delivery bands.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "net/mcs/mcs.hpp"

namespace vab::net::mcs {

inline constexpr double kEwmaAlpha = 0.25;  ///< weight of the newest observation
/// Per-rung sustainable delivery target; the threshold curves evaluate it
/// for a representative kValidationFrameBits frame.
inline constexpr double kTargetDelivery = 0.9;
inline constexpr double kHysteresisDb = 1.5;  ///< extra SNR demanded before stepping up
/// Outcome-path bands (used when no SNR measurement is available): a
/// delivery EWMA below kOutcomeDownBelow forces a step down, one above
/// kOutcomeUpAbove allows a step up.
inline constexpr double kOutcomeDownBelow = 0.7;
inline constexpr double kOutcomeUpAbove = 0.98;

struct AdaptConfig {
  std::size_t min_dwell_polls = 4; ///< polls between consecutive rung changes
  std::size_t start_rung = McsLadder::kPaperRung;  ///< clamped to the ladder
  /// Pin the controller to start_rung (fault-matrix runs that must compare
  /// rungs under identical fault schedules).
  bool frozen = false;
};

/// One node's adaptation state machine. Deterministic: decisions are a pure
/// function of the observation sequence (no RNG, no clock).
class RateController {
 public:
  RateController(const McsLadder& ladder, AdaptConfig cfg);

  /// Feeds one poll observation. `snr_ref` is the transport's measured
  /// link SNR when it has one (reference scale); `delivered` is whether the
  /// report decoded. Returns +1 / -1 when the controller stepped up / down
  /// as a result, 0 otherwise.
  int observe(std::optional<common::SnrDb> snr_ref, bool delivered);

  std::size_t rung() const { return rung_; }
  std::size_t polls() const { return polls_; }
  std::size_t steps_up() const { return steps_up_; }
  std::size_t steps_down() const { return steps_down_; }
  bool has_snr() const { return snr_ewma_.has_value(); }

  /// SNR below which `rung` cannot sustain the delivery target (step-down
  /// threshold; -inf for the bottom rung).
  common::SnrDb down_threshold(std::size_t rung_index) const;
  /// SNR above which the rung *above* `rung_index` sustains the target with
  /// hysteresis margin (step-up threshold; +inf at the top).
  common::SnrDb up_threshold(std::size_t rung_index) const;

 private:
  int try_step();

  const McsLadder* ladder_;
  AdaptConfig cfg_;
  std::vector<double> sustain_snr_db_;  ///< per-rung target-delivery SNR
  std::size_t rung_ = 0;
  std::optional<double> snr_ewma_;
  double delivery_ewma_ = 1.0;
  bool have_outcome_ = false;
  std::size_t polls_ = 0;
  std::size_t polls_at_change_ = 0;
  std::size_t steps_up_ = 0;
  std::size_t steps_down_ = 0;
};

}  // namespace vab::net::mcs
