// Scattering-pattern sweeps and summary metrics over a VanAttaArray.
#pragma once

#include "common/types.hpp"
#include "vanatta/array.hpp"

namespace vab::vanatta {

struct PatternPoint {
  double theta_rad = 0.0;
  double gain_db = 0.0;
};

/// Monostatic gain sweep: gain toward the interrogator as the interrogator
/// moves across `thetas` (the orientation experiment E2).
std::vector<PatternPoint> monostatic_sweep(const VanAttaArray& array, const rvec& thetas,
                                           double f_hz);

/// Angular span (degrees) over which the monostatic gain stays within
/// `drop_db` of its peak — the "field of view" the paper reports.
double retro_fov_deg(const VanAttaArray& array, double f_hz, double drop_db = 3.0,
                     double max_angle_deg = 75.0, std::size_t steps = 301);

}  // namespace vab::vanatta
