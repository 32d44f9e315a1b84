#include "vanatta/pattern.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace vab::vanatta {

std::vector<PatternPoint> monostatic_sweep(const VanAttaArray& array, const rvec& thetas,
                                           double f_hz) {
  std::vector<PatternPoint> out;
  out.reserve(thetas.size());
  for (double th : thetas) out.push_back({th, array.monostatic_gain_db(th, f_hz)});
  return out;
}

double retro_fov_deg(const VanAttaArray& array, double f_hz, double drop_db,
                     double max_angle_deg, std::size_t steps) {
  const rvec thetas = common::linspace(common::deg_to_rad(-max_angle_deg),
                                       common::deg_to_rad(max_angle_deg), steps);
  const auto sweep = monostatic_sweep(array, thetas, f_hz);
  double peak = -1e9;
  for (const auto& p : sweep) peak = std::max(peak, p.gain_db);
  // Widest contiguous span around the peak above (peak - drop).
  double best_span = 0.0;
  double span_start = 0.0;
  bool in_span = false;
  for (const auto& p : sweep) {
    if (p.gain_db >= peak - drop_db) {
      if (!in_span) {
        in_span = true;
        span_start = p.theta_rad;
      }
      best_span = std::max(best_span, p.theta_rad - span_start);
    } else {
      in_span = false;
    }
  }
  return common::rad_to_deg(best_span);
}

}  // namespace vab::vanatta
