// Seawater / freshwater acoustic absorption: Francois & Garrison (1982),
// the full model with boric acid, magnesium sulfate and viscous terms,
// parameterized by temperature, salinity, depth and pH. River profiles use
// low salinity, which suppresses the chemical relaxation terms.
#pragma once

#include "common/units.hpp"

namespace vab::channel {

struct WaterProperties {
  double temperature_c = 10.0;  ///< Celsius
  double salinity_ppt = 35.0;   ///< parts per thousand (rivers ~0.5)
  double depth_m = 10.0;        ///< mean path depth
  double ph = 8.0;
};

/// Absorption loss using Francois-Garrison.
common::Db absorption_loss(common::Hz f, common::Meters range, const WaterProperties& w);

/// Francois-Garrison absorption at one frequency and water profile, with the
/// coefficient evaluated once so a caller sweeping range pays only the
/// multiply. `absorption_loss(f, range, w)` is `Absorption(f, w).loss(range)`,
/// so the two cannot drift apart. Throws std::invalid_argument if `f <= 0`.
class Absorption {
 public:
  Absorption(common::Hz f, const WaterProperties& w);

  common::Db loss(common::Meters range) const {
    return common::Db{db_per_km_ * range.raw() / 1000.0};
  }

 private:
  // Raw dB/km, not DbPerM: the per_km/raw_per_km round trip is not
  // bit-exact, and every seeded output depends on `per_km * r / 1000`.
  double db_per_km_;
};

}  // namespace vab::channel
