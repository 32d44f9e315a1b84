#include "piezo/bvd.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "piezo/network.hpp"

namespace vab::piezo {

BvdModel::BvdModel(BvdParams p) : p_(p) {
  if (p_.c0_farads <= 0.0 || p_.rm_ohms <= 0.0 || p_.lm_henries <= 0.0 ||
      p_.cm_farads <= 0.0)
    throw std::invalid_argument("BVD parameters must be positive");
  if (p_.eta_acoustic <= 0.0 || p_.eta_acoustic > 1.0)
    throw std::invalid_argument("acoustic efficiency must be in (0, 1]");
}

BvdModel BvdModel::from_resonance(double fs_hz, double q_m, double k_eff,
                                  double c0_farads, double eta_acoustic) {
  if (fs_hz <= 0.0 || q_m <= 0.0 || c0_farads <= 0.0)
    throw std::invalid_argument("resonance parameters must be positive");
  if (k_eff <= 0.0 || k_eff >= 1.0)
    throw std::invalid_argument("k_eff must be in (0, 1)");
  const double ws = common::kTwoPi * fs_hz;
  BvdParams p;
  p.c0_farads = c0_farads;
  // k_eff^2 = (fp^2 - fs^2) / fp^2 with fp = fs sqrt(1 + Cm/C0)
  //   =>  Cm / C0 = k^2 / (1 - k^2).
  p.cm_farads = c0_farads * k_eff * k_eff / (1.0 - k_eff * k_eff);
  p.lm_henries = 1.0 / (ws * ws * p.cm_farads);
  p.rm_ohms = ws * p.lm_henries / q_m;
  p.eta_acoustic = eta_acoustic;
  return BvdModel(p);
}

cplx BvdModel::motional_impedance(double f_hz) const {
  if (f_hz <= 0.0) throw std::invalid_argument("frequency must be > 0");
  const double w = common::kTwoPi * f_hz;
  return cplx{p_.rm_ohms, 0.0} + impedance_inductor(p_.lm_henries, w) +
         impedance_capacitor(p_.cm_farads, w);
}

cplx BvdModel::impedance(double f_hz) const {
  const double w = common::kTwoPi * f_hz;
  const cplx zm = motional_impedance(f_hz);
  const cplx z0 = impedance_capacitor(p_.c0_farads, w);
  return z0 * zm / (z0 + zm);
}

double BvdModel::series_resonance_hz() const {
  return 1.0 / (common::kTwoPi * std::sqrt(p_.lm_henries * p_.cm_farads));
}

}  // namespace vab::piezo
