// Butterworth–Van-Dyke equivalent circuit of a piezoelectric transducer.
//
// Static capacitance C0 in parallel with a motional branch Rm-Lm-Cm. The
// motional resistance splits into a radiation part (useful acoustic output)
// and a mechanical-loss part; their ratio is the electro-acoustic
// efficiency at resonance. This is the model the paper co-designs its
// matching network and Van Atta interconnect around.
#pragma once

#include "common/types.hpp"

namespace vab::piezo {

struct BvdParams {
  double c0_farads = 10e-9;   ///< static (clamped) capacitance
  double rm_ohms = 500.0;     ///< total motional resistance
  double lm_henries = 0.0;    ///< motional inductance
  double cm_farads = 0.0;     ///< motional capacitance
  double eta_acoustic = 0.6;  ///< R_rad / Rm: fraction of motional power radiated
};

class BvdModel {
 public:
  explicit BvdModel(BvdParams p);

  /// Builds a BVD model from measurable quantities: series resonance
  /// `fs_hz`, mechanical quality factor `q_m`, effective coupling
  /// coefficient `k_eff` (0..1), static capacitance and acoustic efficiency.
  static BvdModel from_resonance(double fs_hz, double q_m, double k_eff,
                                 double c0_farads, double eta_acoustic = 0.6);

  /// Electrical input impedance at frequency `f_hz`.
  cplx impedance(double f_hz) const;

  /// Impedance of the motional branch alone.
  cplx motional_impedance(double f_hz) const;

  /// Series (motional) resonance frequency, where the motional branch is
  /// purely resistive.
  double series_resonance_hz() const;

  /// Fraction of power dissipated in the motional branch that is radiated
  /// acoustically (vs lost to internal damping).
  double eta_acoustic() const { return p_.eta_acoustic; }

  const BvdParams& params() const { return p_; }

 private:
  BvdParams p_;
};

}  // namespace vab::piezo
