#include "core/energy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vab::core {

StorageCapacitor::StorageCapacitor(CapacitorConfig cfg) : cfg_(cfg) {
  if (cfg_.capacitance_f <= 0.0) throw std::invalid_argument("capacitance must be > 0");
  if (cfg_.brownout_voltage_v >= cfg_.max_voltage_v)
    throw std::invalid_argument("brownout must be below max voltage");
  if (cfg_.initial_voltage_v < 0.0 || cfg_.initial_voltage_v > cfg_.max_voltage_v)
    throw std::invalid_argument("initial voltage out of range");
  energy_j_ = energy_for_voltage(cfg_.initial_voltage_v);
  browned_out_ = cfg_.initial_voltage_v < cfg_.brownout_voltage_v;
}

void StorageCapacitor::charge(common::PowerW power, common::Seconds dt) {
  const double power_w = power.raw();
  const double dt_s = dt.raw();
  if (power_w < 0.0 || dt_s < 0.0) throw std::invalid_argument("negative charge");
  energy_j_ =
      std::min(energy_j_ + power_w * dt_s, energy_for_voltage(cfg_.max_voltage_v));
  if (voltage() >= cfg_.brownout_voltage_v) browned_out_ = false;
}

bool StorageCapacitor::draw(common::PowerW power, common::Seconds dt) {
  const double power_w = power.raw();
  const double dt_s = dt.raw();
  if (power_w < 0.0 || dt_s < 0.0) throw std::invalid_argument("negative draw");
  const double need = power_w * dt_s;
  const double floor_e = energy_for_voltage(cfg_.brownout_voltage_v);
  if (energy_j_ - need < floor_e) {
    energy_j_ = floor_e;
    browned_out_ = true;
    return false;
  }
  energy_j_ -= need;
  return true;
}

double StorageCapacitor::voltage() const {
  return std::sqrt(2.0 * energy_j_ / cfg_.capacitance_f);
}

double StorageCapacitor::usable_energy_j() const {
  const double floor_e = energy_for_voltage(cfg_.brownout_voltage_v);
  return std::max(energy_j_ - floor_e, 0.0);
}

}  // namespace vab::core
