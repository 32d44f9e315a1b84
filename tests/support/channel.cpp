#include "support/channel.hpp"

#include <stdexcept>

namespace vab::channel {

common::DbPerM thorp_absorption(common::Hz f) {
  const double f_khz = f.raw() / 1000.0;
  if (f_khz <= 0.0) throw std::invalid_argument("frequency must be > 0");
  const double f2 = f_khz * f_khz;
  return common::DbPerM::per_km(0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) +
                                2.75e-4 * f2 + 0.003);
}

common::DbPerM francois_garrison_absorption(common::Hz f, const WaterProperties& w) {
  // loss(1 m) is db_per_km * 1 / 1000, which is DbPerM::per_km's division.
  return common::DbPerM{Absorption(f, w).loss(common::Meters{1.0}).raw()};
}

common::Db ambient_nsd(common::Hz f, const NoiseConditions& cond) {
  // 10 log10(1 Hz) adds exactly zero.
  return noise_level(f, common::Hz{1.0}, cond);
}

std::vector<PathTap> single_tap(double gain, double delay_s) {
  return {PathTap{delay_s, gain, 0, 0}};
}

}  // namespace vab::channel
