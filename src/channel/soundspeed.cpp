#include "channel/soundspeed.hpp"

#include <cmath>

namespace vab::channel {

double mackenzie_sound_speed(double T, double S, double D) {
  return 1448.96 + 4.591 * T - 5.304e-2 * T * T + 2.374e-4 * T * T * T +
         1.340 * (S - 35.0) + 1.630e-2 * D + 1.675e-7 * D * D -
         1.025e-2 * T * (S - 35.0) - 7.139e-13 * T * D * D * D;
}

double freshwater_sound_speed(double T) {
  // Marczak (1997), 0-95 C, atmospheric pressure.
  return 1.402385e3 + 5.038813 * T - 5.799136e-2 * T * T + 3.287156e-4 * T * T * T -
         1.398845e-6 * T * T * T * T + 2.787860e-9 * T * T * T * T * T;
}

double sound_speed(const WaterProperties& w) {
  if (w.salinity_ppt < 5.0) return freshwater_sound_speed(w.temperature_c);
  return mackenzie_sound_speed(w.temperature_c, w.salinity_ppt, w.depth_m);
}

}  // namespace vab::channel
