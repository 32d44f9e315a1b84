#include "channel/absorption.hpp"

#include <cmath>
#include <stdexcept>

namespace vab::channel {

namespace {
// Interior math stays on raw doubles in the model's native dB/km-of-kHz
// scale; the typed API wraps at the boundary. The loss expressions below
// reproduce the historical `per_km * range_m / 1000` association exactly so
// every seeded output is bit-identical.
double francois_garrison_db_per_km(double f_khz, const WaterProperties& w) {
  if (f_khz <= 0.0) throw std::invalid_argument("frequency must be > 0");
  const double T = w.temperature_c;
  const double S = w.salinity_ppt;
  const double D_m = w.depth_m;
  const double f = f_khz;
  const double c = 1412.0 + 3.21 * T + 1.19 * S + 0.0167 * D_m;
  const double theta = 273.0 + T;

  // Boric acid contribution.
  const double A1 = 8.86 / c * std::pow(10.0, 0.78 * w.ph - 5.0);
  const double P1 = 1.0;
  const double f1 = 2.8 * std::sqrt(std::max(S, 1e-6) / 35.0) *
                    std::pow(10.0, 4.0 - 1245.0 / theta);

  // Magnesium sulfate contribution.
  const double A2 = 21.44 * S / c * (1.0 + 0.025 * T);
  const double P2 = 1.0 - 1.37e-4 * D_m + 6.2e-9 * D_m * D_m;
  const double f2 = 8.17 * std::pow(10.0, 8.0 - 1990.0 / theta) /
                    (1.0 + 0.0018 * (S - 35.0));

  // Pure-water viscosity contribution.
  double A3;
  if (T <= 20.0) {
    A3 = 4.937e-4 - 2.59e-5 * T + 9.11e-7 * T * T - 1.50e-8 * T * T * T;
  } else {
    A3 = 3.964e-4 - 1.146e-5 * T + 1.45e-7 * T * T - 6.5e-10 * T * T * T;
  }
  const double P3 = 1.0 - 3.83e-5 * D_m + 4.9e-10 * D_m * D_m;

  const double ff = f * f;
  return A1 * P1 * f1 * ff / (f1 * f1 + ff) + A2 * P2 * f2 * ff / (f2 * f2 + ff) +
         A3 * P3 * ff;
}
}  // namespace

Absorption::Absorption(common::Hz f, const WaterProperties& w)
    : db_per_km_(francois_garrison_db_per_km(f.raw() / 1000.0, w)) {}

common::Db absorption_loss(common::Hz f, common::Meters range, const WaterProperties& w) {
  return Absorption(f, w).loss(range);
}

}  // namespace vab::channel
