// Van Atta retrodirective acoustic array.
//
// The paper's key architectural idea: transducer elements are wired in
// mirrored pairs (element i to element N-1-i) through equal-length lines, so
// the phase profile received across the aperture is re-transmitted reversed
// — the array retroreflects toward the interrogator from any direction, with
// no phase estimation and no power. Modulation toggles the pair connection
// (on/off keying) or its polarity (BPSK-like), putting data on the
// retroreflected wave.
//
// This module computes complex bistatic responses including element
// efficiency, line/switch loss, element directivity and per-element phase
// errors. Baseline modes (single element, fixed-phase array) implement the
// paper's comparison points.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace vab::vanatta {

/// How the array reflects.
enum class ArrayMode {
  kVanAtta,      ///< mirrored-pair routing (the paper's design)
  kFixedPhase,   ///< each element reflects from itself (non-retro baseline)
  kSingleElement ///< one element only (prior-art PAB baseline)
};

/// How data modulates the reflection.
enum class ModulationScheme {
  kOnOff,     ///< switch the pair line open/closed
  kPolarity   ///< flip the pair connection polarity (full-depth BPSK)
};

struct VanAttaConfig {
  std::size_t n_elements = 4;       ///< must be even for kVanAtta
  double f_design_hz = 18500.0;
  double spacing_m = 0.0;           ///< 0 = lambda/2 at f_design
  double sound_speed_mps = 1500.0;
  ArrayMode mode = ArrayMode::kVanAtta;
  ModulationScheme scheme = ModulationScheme::kOnOff;

  /// One-way amplitude efficiency of a transducer element converting
  /// acoustic->electrical (and electrical->acoustic); the through-path sees
  /// it twice.
  double element_efficiency = 0.75;
  double line_loss_db = 0.5;        ///< per pair connection
  double switch_insertion_db = 0.3; ///< modulator switch through-loss
  /// Element directivity exponent: pattern amplitude cos^q(theta).
  double directivity_q = 0.5;
};

/// Extra electrical line length expressed as phase at f_design (all pairs
/// share it in a clean build; per-element errors are injected separately).
inline constexpr double kLinePhaseRad = 0.0;

class VanAttaArray {
 public:
  explicit VanAttaArray(VanAttaConfig cfg);

  /// Complex far-field backscatter amplitude for a unit-amplitude plane wave
  /// incident from `theta_in`, observed at `theta_out` (radians from
  /// broadside), at frequency `f_hz`, in modulation state `state` (0 or 1).
  /// Normalized so a single ideal lossless element in state 1 returns 1.
  cplx bistatic_response(double theta_in, double theta_out, double f_hz, int state) const;

  /// Monostatic (retro) power gain in dB relative to a single ideal element:
  /// 10 log10 |response(theta, theta)|^2 in the reflective state.
  double monostatic_gain_db(double theta, double f_hz) const;

  /// Differential modulation amplitude |resp(state1) - resp(state0)| / 2 at
  /// the monostatic angle — the factor that enters the backscatter link
  /// budget.
  double modulation_amplitude(double theta, double f_hz) const;

  /// Injects per-element phase errors (radians, one per element) modeling
  /// line-length / transducer mismatch.
  void set_phase_errors(std::vector<double> errors);
  /// Injects per-element amplitude gains (linear, one per element).
  void set_gain_errors(std::vector<double> gains);

  const VanAttaConfig& config() const { return cfg_; }
  std::size_t size() const { return cfg_.n_elements; }
  /// Element x-positions (meters, symmetric about 0).
  const std::vector<double>& positions() const { return pos_; }
  /// Partner index of element i under the current mode.
  std::size_t partner(std::size_t i) const;

 private:
  double element_pattern(double theta) const;
  /// Through-path amplitude (line + switch + two transduction passes).
  double through_gain() const;
  /// Multiplicative modulation factor applied to the pair transfer.
  cplx state_factor(int state) const;

  VanAttaConfig cfg_;
  std::vector<double> pos_;
  std::vector<double> phase_err_;
  std::vector<double> gain_err_;
};

}  // namespace vab::vanatta
