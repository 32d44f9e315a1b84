#include "channel/multipath.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vab::channel {

namespace {

// Counts surface (even-k) and bottom (odd-k) plane crossings of the unfolded
// straight path between vertical coordinates a and b (planes at z = k*H).
void count_bounces(double a, double b, double H, int& surface, int& bottom) {
  surface = 0;
  bottom = 0;
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  // Strictly interior crossings.
  const auto k_lo = static_cast<long>(std::floor(lo / H)) + 1;
  const auto k_hi = static_cast<long>(std::ceil(hi / H)) - 1;
  for (long k = k_lo; k <= k_hi; ++k) {
    if (k % 2 == 0)
      ++surface;
    else
      ++bottom;
  }
}

}  // namespace

std::vector<PathTap> image_method_taps(common::Meters range,
                                       common::Meters src_depth,
                                       common::Meters rx_depth,
                                       double sound_speed_mps,
                                       const MultipathConfig& cfg) {
  const double range_m = range.raw();
  const double src_depth_m = src_depth.raw();
  const double rx_depth_m = rx_depth.raw();
  if (range_m <= 0.0) throw std::invalid_argument("range must be > 0");
  const double H = cfg.water_depth_m;
  if (H <= 0.0) throw std::invalid_argument("water depth must be > 0");
  if (src_depth_m < 0.0 || src_depth_m > H || rx_depth_m < 0.0 || rx_depth_m > H)
    throw std::invalid_argument("endpoints must be inside the water column");
  if (sound_speed_mps <= 0.0) throw std::invalid_argument("sound speed must be > 0");

  const double direct_r =
      std::sqrt(range_m * range_m +
                (rx_depth_m - src_depth_m) * (rx_depth_m - src_depth_m));
  const double spread_exp = cfg.spreading_coeff / 20.0;
  const double direct_amp = std::pow(std::max(direct_r, 1.0), -spread_exp);

  std::vector<PathTap> taps;
  for (long m = -(cfg.max_order + 1); m <= cfg.max_order + 1; ++m) {
    for (int family = 0; family < 2; ++family) {
      const double zeta = family == 0 ? 2.0 * static_cast<double>(m) * H + rx_depth_m
                                      : 2.0 * static_cast<double>(m) * H - rx_depth_m;
      int s = 0, b = 0;
      count_bounces(src_depth_m, zeta, H, s, b);
      if (s + b > cfg.max_order) continue;
      if (m == 0 && family == 0) { s = 0; b = 0; }  // direct path, no crossings

      const double dz = zeta - src_depth_m;
      const double r = std::sqrt(range_m * range_m + dz * dz);
      const double bounce_loss_db =
          static_cast<double>(s) * cfg.surface_loss_db +
          static_cast<double>(b) * cfg.bottom_loss_db;
      double amp = std::pow(10.0, -bounce_loss_db / 20.0) *
                   std::pow(std::max(r, 1.0), -spread_exp);
      if (cfg.absorption_freq_hz > 0.0)
        amp *= std::pow(
            10.0, -absorption_loss(common::Hz{cfg.absorption_freq_hz},
                                   common::Meters{r}, cfg.water)
                       .raw() /
                      20.0);
      if (amp < cfg.min_relative_amplitude * direct_amp) continue;

      const double sign = (s % 2 == 0) ? 1.0 : -1.0;
      taps.push_back(PathTap{r / sound_speed_mps, sign * amp, s, b});
    }
  }

  std::sort(taps.begin(), taps.end(),
            [](const PathTap& a, const PathTap& c) { return a.delay_s < c.delay_s; });
  // Deduplicate numerically coincident arrivals (family overlap at m=0 when
  // src and rx depths coincide with a boundary).
  std::vector<PathTap> unique;
  for (const auto& t : taps) {
    if (!unique.empty() && std::abs(t.delay_s - unique.back().delay_s) < 1e-12 &&
        t.surface_bounces == unique.back().surface_bounces &&
        t.bottom_bounces == unique.back().bottom_bounces)
      continue;
    unique.push_back(t);
  }
  return unique;
}

}  // namespace vab::channel
