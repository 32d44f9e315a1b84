#include "piezo/harvester.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::piezo {

double rectifier_efficiency(const RectifierModel& r, double input_rms_v) {
  if (input_rms_v <= r.diode_drop_v) return 0.0;
  // Soft knee: efficiency climbs from 0 past the diode drop toward peak.
  const double x = (input_rms_v - r.diode_drop_v) / r.knee_voltage_v;
  return r.peak_efficiency * x / (1.0 + x);
}

EnergyHarvester::EnergyHarvester(const BvdModel& transducer) : transducer_(transducer) {}

double EnergyHarvester::available_electrical_power_w(double pressure_pa) const {
  if (pressure_pa < 0.0) throw std::invalid_argument("pressure must be >= 0");
  // Plane-wave intensity I = p_rms^2 / (rho c).
  const double intensity = pressure_pa * pressure_pa / common::kWaterAcousticImpedance;
  // Acoustic->electrical conversion mirrors the electrical->acoustic path:
  // the motional efficiency applies in reverse.
  return intensity * kHarvestApertureM2 * transducer_.eta_acoustic();
}

double EnergyHarvester::harvested_power_w(double pressure_pa) const {
  const double p_el = available_electrical_power_w(pressure_pa);
  // Rectifier input RMS voltage after the boost network; the diode drop
  // makes harvesting nonlinear in the incident level.
  const double v_rms = std::sqrt(p_el * kRectifierInputResistanceOhms);
  return p_el * rectifier_efficiency(RectifierModel{}, v_rms);
}

double PowerBudget::average_power_w(double frac_sleep, double frac_listen,
                                    double frac_backscatter, double frac_active) const {
  const double total = frac_sleep + frac_listen + frac_backscatter + frac_active;
  if (total <= 0.0 || total > 1.0 + 1e-9)
    throw std::invalid_argument("duty-cycle fractions must sum to at most 1");
  return sleep_w * frac_sleep + rx_listen_w * frac_listen +
         backscatter_w * frac_backscatter + mcu_active_w * frac_active;
}

double energy_per_bit_j(const PowerBudget& b, double bitrate_bps) {
  if (bitrate_bps <= 0.0) throw std::invalid_argument("bitrate must be > 0");
  return b.backscatter_w / bitrate_bps;
}

}  // namespace vab::piezo
