#include "phy/sic.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::phy {

SelfInterferenceCanceller::SelfInterferenceCanceller(const SicConfig& cfg,
                                                     double chip_rate_hz, double fs_bb_hz)
    : cfg_(cfg) {
  if (chip_rate_hz <= 0.0 || fs_bb_hz <= 0.0)
    throw std::invalid_argument("rates must be > 0");
  const double corner_hz = kNotchCornerFrac * chip_rate_hz;
  alpha_ = 1.0 - std::exp(-common::kTwoPi * corner_hz / fs_bb_hz);
}

void SelfInterferenceCanceller::process_inplace(cvec& x) {
  // DC power before (carrier sits at 0 Hz in baseband).
  cplx mean_before{};
  for (const auto& v : x) mean_before += v;
  if (!x.empty()) mean_before /= static_cast<double>(x.size());

  if (cfg_.enable_dc_notch) {
    // Stage 1 (static): subtract the full-capture complex mean. For an
    // unmodulated carrier blast this is exact — the blast can sit 80-90 dB
    // above the backscatter and any tracker transient of that size would
    // bury the frame. The balanced FM0 frame contributes ~nothing to the
    // mean.
    for (auto& v : x) v -= mean_before;
    // Stage 2 (dynamic): slow one-pole tracker absorbs residual drift
    // (projector ramp, platform motion). It starts from zero error, so its
    // own transient is negligible.
    cplx track{};
    for (auto& v : x) {
      track += alpha_ * (v - track);
      v -= track;
    }
  }

  cplx mean_after{};
  for (const auto& v : x) mean_after += v;
  if (!x.empty()) mean_after /= static_cast<double>(x.size());

  const double before = std::norm(mean_before);
  const double after = std::norm(mean_after);
  last_suppression_db_ =
      10.0 * std::log10(std::max(before, 1e-30) / std::max(after, 1e-30));
}

}  // namespace vab::phy
