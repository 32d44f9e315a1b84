// Energy harvesting and node power budget.
//
// In the "matched" load state the transducer delivers the incident acoustic
// power to a rectifier that charges the node's storage capacitor. The power
// budget ties harvested power against the node's ultra-low-power draw
// (timer, FM0 logic, switch drivers) — the battery-free operating point the
// paper's architecture targets (experiment E9).
#pragma once

#include "common/types.hpp"
#include "piezo/bvd.hpp"

namespace vab::piezo {

struct RectifierModel {
  double diode_drop_v = 0.2;       ///< Schottky forward drop
  double peak_efficiency = 0.75;   ///< at high input amplitude
  /// Input amplitude (V) at which efficiency reaches half its peak; below
  /// this the diode drop dominates.
  double knee_voltage_v = 0.5;
};

/// Conversion efficiency of the rectifier at the given input RMS voltage.
double rectifier_efficiency(const RectifierModel& r, double input_rms_v);

inline constexpr double kHarvestApertureM2 = 5e-3;  ///< effective acoustic capture area
/// Impedance presented to the rectifier after the voltage-boost matching
/// network (piezo harvesters step the low at-resonance impedance up so the
/// open-circuit voltage clears the diode drop).
inline constexpr double kRectifierInputResistanceOhms = 2e4;

/// Harvests through a default RectifierModel behind the boost network.
class EnergyHarvester {
 public:
  explicit EnergyHarvester(const BvdModel& transducer);

  /// Electrical power available from an incident plane wave with RMS
  /// pressure `pressure_pa` (intensity x aperture x transducer efficiency).
  /// The conversion is the transducer's at resonance (`eta_acoustic()`):
  /// the carrier is assumed to sit on the series resonance, so there is no
  /// frequency argument.
  double available_electrical_power_w(double pressure_pa) const;

  /// DC power after rectification (at resonance, as above).
  double harvested_power_w(double pressure_pa) const;

 private:
  BvdModel transducer_;
};

/// Static power draw of the node's electronics in each state.
struct PowerBudget {
  double sleep_w = 0.2e-6;      ///< RTC + leakage
  double rx_listen_w = 15e-6;   ///< envelope detector + comparator for downlink
  double backscatter_w = 50e-6; ///< FM0 logic + switch drivers while uplinking
  double mcu_active_w = 300e-6; ///< sensor sampling bursts

  /// Average power for a duty-cycled node.
  double average_power_w(double frac_sleep, double frac_listen, double frac_backscatter,
                         double frac_active) const;
};

/// Energy per uplink bit at `bitrate_bps` in the backscatter state.
double energy_per_bit_j(const PowerBudget& b, double bitrate_bps);

}  // namespace vab::piezo
