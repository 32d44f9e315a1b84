// Self-interference cancellation (SIC).
//
// At the reader, the direct projector-to-hydrophone blast is tens of dB
// above the backscatter. In complex baseband the unmodulated carrier is a
// (slowly drifting) DC term; the backscatter data lives in the FM0
// sidebands. The canceller subtracts the capture's DC, then a slow one-pole
// tracker absorbs residual amplitude/phase drift (platform motion,
// projector ramp).
#pragma once

#include "common/types.hpp"

namespace vab::phy {

/// One-pole drift-tracker corner as a fraction of the chip rate. Must sit far
/// below the chip rate or the tracker eats the FM0 modulation itself; FM0
/// guarantees runs of at most two chips, so 1% of the chip rate keeps the
/// in-run droop negligible while still tracking carrier drift.
inline constexpr double kNotchCornerFrac = 0.01;

struct SicConfig {
  bool enable_dc_notch = true;  ///< false only for the E8 ablation
};

class SelfInterferenceCanceller {
 public:
  /// `chip_rate_hz` and `fs_bb_hz` size the tracker corner.
  SelfInterferenceCanceller(const SicConfig& cfg, double chip_rate_hz, double fs_bb_hz);

  /// Cancels the carrier from baseband `x` in place.
  void process_inplace(cvec& x);

  /// Carrier suppression achieved on the last call, in dB (power at DC
  /// before vs after).
  double last_suppression_db() const { return last_suppression_db_; }

 private:
  SicConfig cfg_;
  double alpha_;  // one-pole tracker coefficient
  double last_suppression_db_ = 0.0;
};

}  // namespace vab::phy
