// Planar (2-D) Van Atta array.
//
// The paper's nodes are linear arrays, retrodirective only in the plane
// containing the array axis; a deployed node also pitches and rolls. The
// classic remedy is a planar Van Atta: elements paired by point reflection
// through the array center retroreflect in both azimuth and elevation.
// This module extends the linear model to an R x C grid and exposes the
// same bistatic/monostatic interface over (azimuth, elevation).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "vanatta/array.hpp"

namespace vab::vanatta {

struct PlanarVanAttaConfig {
  std::size_t rows = 4;
  std::size_t cols = 4;
  double f_design_hz = 18500.0;
  double spacing_m = 0.0;  ///< 0 = lambda/2 at f_design, both axes
  double sound_speed_mps = 1500.0;
  ModulationScheme scheme = ModulationScheme::kPolarity;
  double element_efficiency = 0.75;
  double line_loss_db = 0.5;
  double switch_insertion_db = 0.3;
  double directivity_q = 0.5;
  /// False degrades the grid to per-row linear pairing (the ablation that
  /// shows why point-reflection pairing is required for elevation retro).
  bool point_reflection_pairing = true;
};

/// Propagation direction in the array frame.
struct Direction {
  double azimuth_rad = 0.0;    ///< rotation about the vertical array axis
  double elevation_rad = 0.0;  ///< rotation out of the array plane
};

class PlanarVanAttaArray {
 public:
  explicit PlanarVanAttaArray(PlanarVanAttaConfig cfg);

  /// Complex bistatic backscatter amplitude, normalized so one ideal
  /// lossless element returns 1 (same convention as the linear array).
  cplx bistatic_response(const Direction& in, const Direction& out, double f_hz,
                         int state) const;

  /// Monostatic (retro) power gain in dB relative to a single ideal element.
  double monostatic_gain_db(const Direction& d, double f_hz) const;

  std::size_t size() const { return cfg_.rows * cfg_.cols; }
  std::size_t partner(std::size_t i) const;
  const PlanarVanAttaConfig& config() const { return cfg_; }

 private:
  double element_pattern(const Direction& d) const;
  double through_gain() const;
  cplx state_factor(int state) const;

  PlanarVanAttaConfig cfg_;
  std::vector<double> x_;  ///< element positions, meters, centered
  std::vector<double> y_;
};

}  // namespace vab::vanatta
