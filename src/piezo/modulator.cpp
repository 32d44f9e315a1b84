#include "piezo/modulator.hpp"

#include <cmath>

#include "common/units.hpp"

namespace vab::piezo {

LoadModulator::LoadModulator(cplx z_reference, SwitchModel sw)
    : z_ref_(z_reference), sw_(sw) {
  if (z_reference.real() <= 0.0)
    throw std::invalid_argument("reference impedance needs positive real part");
}

cplx LoadModulator::gamma(LoadState state, double f_hz, cplx z_custom) const {
  const double w = common::kTwoPi * f_hz;
  cplx z_load;
  switch (state) {
    case LoadState::kOpen:
      // Open switch still has its off-capacitance across the port.
      z_load = impedance_capacitor(sw_.off_capacitance_farads, w);
      break;
    case LoadState::kShort:
      z_load = cplx{sw_.on_resistance_ohms, 0.0};
      break;
    case LoadState::kMatched:
      z_load = std::conj(z_ref_);
      break;
    case LoadState::kCustom:
      z_load = z_custom;
      break;
  }
  cplx g = reflection_coefficient(z_load, z_ref_);
  // Switch through-path insertion loss attenuates the reflected wave twice
  // (in and out), i.e. the full loss applies to the power reflection.
  g *= std::pow(10.0, -sw_.insertion_loss_db / 20.0);
  return g;
}

double LoadModulator::modulation_depth(LoadState a, LoadState b, double f_hz) const {
  return std::abs(gamma(a, f_hz) - gamma(b, f_hz)) / 2.0;
}

double LoadModulator::static_reflection(LoadState a, LoadState b, double f_hz) const {
  return std::abs(gamma(a, f_hz) + gamma(b, f_hz)) / 2.0;
}

}  // namespace vab::piezo
