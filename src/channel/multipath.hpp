// Image-method multipath for an isovelocity shallow-water waveguide.
//
// Surface (pressure-release, reflection coefficient -1 with roughness loss)
// and bottom (lossy) boundaries generate image sources; each arrival is a
// tap with its own delay, amplitude (spherical spreading + per-bounce loss +
// absorption) and sign. This captures the delay spread that limits symbol
// rates in shallow water — the dominant channel impairment for VAB.
#pragma once

#include <vector>

#include "channel/absorption.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace vab::channel {

struct MultipathConfig {
  double water_depth_m = 10.0;
  /// Loss per surface bounce in dB (roughness/scattering; grows with wind).
  double surface_loss_db = 1.0;
  /// Loss per bottom bounce in dB (sediment-dependent, ~3-15 dB).
  double bottom_loss_db = 6.0;
  /// Maximum total number of boundary interactions to enumerate.
  int max_order = 6;
  /// Taps weaker than this (relative to the direct path, linear amplitude)
  /// are culled.
  double min_relative_amplitude = 1e-3;
  /// Include frequency-dependent absorption per path at this frequency
  /// (0 disables).
  double absorption_freq_hz = 0.0;
  /// Spreading coefficient k applied per path: amplitude = 10^(-k log10(r)/20)
  /// = r^(-k/20). 20 is free-space spherical; shallow waveguides trap energy
  /// and behave closer to 10-15. Keeping this consistent with the analytic
  /// link budget lets the waveform simulator reach paper-scale ranges.
  double spreading_coeff = 20.0;
  WaterProperties water{};
};

struct PathTap {
  double delay_s = 0.0;
  /// Linear amplitude relative to a unit-amplitude source observed at 1 m;
  /// negative values encode the pi phase flip from odd surface-bounce counts.
  double gain = 0.0;
  int surface_bounces = 0;
  int bottom_bounces = 0;
};

/// Enumerates image-method arrivals between a source at (0, src_depth) and a
/// receiver at (range, rx_depth). Taps are sorted by delay; the first is the
/// direct path.
std::vector<PathTap> image_method_taps(common::Meters range,
                                       common::Meters src_depth,
                                       common::Meters rx_depth,
                                       double sound_speed_mps,
                                       const MultipathConfig& cfg);

}  // namespace vab::channel
