// Deployment scenarios: environment profiles (river / ocean) + reader and
// node geometry. These are the knobs the paper's field experiments varied.
#pragma once

#include <string>

#include "channel/multipath.hpp"
#include "channel/noise.hpp"
#include "channel/soundspeed.hpp"
#include "fault/fault.hpp"
#include "phy/fec.hpp"
#include "phy/modem.hpp"
#include "vanatta/array.hpp"

namespace vab::sim {

struct Environment {
  std::string name = "river";
  channel::WaterProperties water{};
  channel::NoiseConditions noise{};
  channel::MultipathConfig multipath{};
  /// Spreading coefficient k in TL = k log10(r): 10 = cylindrical,
  /// 15 = practical, 20 = spherical. Shallow waveguides sit between
  /// cylindrical and practical beyond a few water depths.
  double spreading_coeff = 15.0;
  /// Slow fading (lognormal shadowing) std-dev on the round-trip link, dB.
  double fading_sigma_db = 3.0;
  /// Sea-surface wave motion (swell): modulates surface-bounce path delays
  /// within a frame in the waveform simulator.
  double surface_wave_amplitude_m = 0.0;
  double surface_wave_period_s = 5.0;

  double sound_speed() const { return channel::sound_speed(water); }
};

/// Charles-River-style profile: fresh, shallow (~5 m), harbor noise floor.
Environment river_environment();
/// Coastal ocean profile: salt, ~20 m deep, calm-sea Wenz noise.
Environment ocean_environment();

struct ReaderDeployment {
  double source_level_db = 184.0;    ///< dB re 1 uPa @ 1 m
  double depth_m = 2.0;
  /// Projector-to-hydrophone baseline; sets the direct-blast level.
  double tx_rx_separation_m = 1.0;
};

struct NodeDeployment {
  vanatta::VanAttaConfig array{};
  double depth_m = 5.0;
  /// Bearing of the reader relative to the array broadside (radians); the
  /// orientation axis of experiment E2.
  double orientation_rad = 0.0;
  /// Residual static (unmodulated) reflection amplitude relative to the
  /// modulated amplitude — carrier leak that SIC must absorb.
  double static_reflection_rel = 0.5;
};

struct Scenario {
  Environment env = river_environment();
  ReaderDeployment reader{};
  NodeDeployment node{};
  double range_m = 100.0;
  phy::PhyConfig phy{};
  /// Frame FEC (Hamming(7,4) + interleaver); off at the paper's operating
  /// point, on for the coded-link extension.
  phy::FecConfig fec{false};
  /// Scheduled impairments (burst loss, SNR dips, node dropout). Empty by
  /// default: every pre-fault scenario is bit-identical with the hook
  /// compiled in.
  fault::FaultPlan fault{};
};

/// Calibration constant: backscatter target strength of a single *ideal*
/// (lossless, unit-modulation) transducer element, dB re 1 m. All array
/// responses are expressed relative to this reference. The value matches
/// the small cylindrical transducers the paper's nodes use.
inline constexpr double kElementTargetStrengthDb = -40.0;

/// Channel tap sets for a scenario's geometry (spreading law applied).
std::vector<channel::PathTap> forward_taps(const Scenario& s);
std::vector<channel::PathTap> return_taps(const Scenario& s);
std::vector<channel::PathTap> blast_taps(const Scenario& s);

/// The paper's VAB node on a river deployment (the headline configuration).
Scenario vab_river_scenario();
/// Same node in the ocean profile (experiment E4).
Scenario vab_ocean_scenario();
/// Prior-art single-element backscatter baseline (PAB): one unmatched
/// element, on-off keying — the 15x comparison point (experiment E5).
Scenario pab_river_scenario();

}  // namespace vab::sim
