// Complex linear two-port networks (ABCD-matrix form) for the
// electro-mechanical co-design: matching sections, transmission lines and
// switches compose by cascading ABCD matrices.
#pragma once

#include "common/types.hpp"

namespace vab::piezo {

/// ABCD (chain) matrix of a two-port: [V1; I1] = [A B; C D] [V2; I2].
struct TwoPort {
  cplx a{1.0, 0.0}, b{}, c{}, d{1.0, 0.0};

  /// Cascade: this followed by `next`.
  TwoPort then(const TwoPort& next) const;

  /// Input impedance looking into port 1 with `z_load` on port 2.
  cplx input_impedance(cplx z_load) const;
};

/// Series impedance element.
TwoPort series_element(cplx z);

/// Shunt (parallel-to-ground) admittance element.
TwoPort shunt_element(cplx y);

/// Impedance of ideal elements at angular frequency w.
cplx impedance_inductor(double l_henries, double w);
cplx impedance_capacitor(double c_farads, double w);

/// Power reflection coefficient |Gamma|^2 of load `z_load` against source
/// impedance `z_source` (conjugate-match reference):
/// Gamma = (z_load - conj(z_source)) / (z_load + z_source).
cplx reflection_coefficient(cplx z_load, cplx z_source);

/// Fraction of the source's available power delivered to `z_load` when
/// driven from `z_source` (1 at conjugate match).
double power_transfer_efficiency(cplx z_load, cplx z_source);

}  // namespace vab::piezo
