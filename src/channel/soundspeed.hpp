// Sound speed in water.
//
// Mackenzie (1981) nine-term equation, valid for T in [-2, 30] C, S in
// [25, 40] ppt, depth to 8000 m. For rivers (S ~ 0) we fall back to the
// freshwater Marczak polynomial.
#pragma once

#include "channel/absorption.hpp"

namespace vab::channel {

/// Mackenzie sound speed (m/s).
double mackenzie_sound_speed(double temperature_c, double salinity_ppt, double depth_m);

/// Freshwater sound speed (Marczak 1997 polynomial), m/s.
double freshwater_sound_speed(double temperature_c);

/// Sound speed for given water properties, choosing the appropriate model.
double sound_speed(const WaterProperties& w);

}  // namespace vab::channel
