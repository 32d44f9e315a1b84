// Storage-capacitor dynamics for battery-free operation.
//
// The node banks harvested energy in a supercapacitor (E = C V^2 / 2) and
// browns out when the regulator input drops below its minimum. This turns
// the static power budget (E9) into a time-domain simulation: how long can a
// node run between reader passes, and does a given duty cycle converge?
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "common/units.hpp"
#include "piezo/harvester.hpp"

namespace vab::core {

struct CapacitorConfig {
  double capacitance_f = 0.1;     ///< supercap
  double max_voltage_v = 2.7;
  double brownout_voltage_v = 1.8;  ///< regulator drop-out
  double initial_voltage_v = 2.5;
};

class StorageCapacitor {
 public:
  explicit StorageCapacitor(CapacitorConfig cfg);

  /// Adds harvested energy over `dt` (clamped at max voltage).
  void charge(common::PowerW power, common::Seconds dt);

  /// Draws load energy over `dt`. Returns false (and freezes at the brownout
  /// voltage) if the capacitor cannot supply it.
  bool draw(common::PowerW power, common::Seconds dt);

  double voltage() const;
  double energy_j() const { return energy_j_; }
  bool browned_out() const { return browned_out_; }
  /// Usable energy above the brownout threshold.
  double usable_energy_j() const;

  const CapacitorConfig& config() const { return cfg_; }

 private:
  double energy_for_voltage(double v) const {
    return 0.5 * cfg_.capacitance_f * v * v;
  }

  CapacitorConfig cfg_;
  double energy_j_ = 0.0;
  bool browned_out_ = false;
};

}  // namespace vab::core
