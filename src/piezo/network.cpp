#include "piezo/network.hpp"

#include <cmath>
#include <stdexcept>

namespace vab::piezo {

TwoPort TwoPort::then(const TwoPort& n) const {
  return TwoPort{a * n.a + b * n.c, a * n.b + b * n.d,
                 c * n.a + d * n.c, c * n.b + d * n.d};
}

cplx TwoPort::input_impedance(cplx z_load) const {
  return (a * z_load + b) / (c * z_load + d);
}

TwoPort series_element(cplx z) { return TwoPort{{1.0, 0.0}, z, {}, {1.0, 0.0}}; }

TwoPort shunt_element(cplx y) { return TwoPort{{1.0, 0.0}, {}, y, {1.0, 0.0}}; }

cplx impedance_inductor(double l, double w) { return cplx{0.0, w * l}; }

cplx impedance_capacitor(double c, double w) {
  if (c <= 0.0 || w <= 0.0)
    throw std::invalid_argument("capacitance/frequency must be > 0");
  return cplx{0.0, -1.0 / (w * c)};
}

cplx reflection_coefficient(cplx z_load, cplx z_source) {
  return (z_load - std::conj(z_source)) / (z_load + z_source);
}

double power_transfer_efficiency(cplx z_load, cplx z_source) {
  const double rl = z_load.real();
  const double rs = z_source.real();
  if (rs <= 0.0) throw std::invalid_argument("source resistance must be > 0");
  if (rl <= 0.0) return 0.0;
  // P_load / P_available = 4 Rs Rl / |Zs + Zl|^2.
  const cplx zt = z_load + z_source;
  return 4.0 * rs * rl / std::norm(zt);
}

}  // namespace vab::piezo
