// Backscatter load modulation.
//
// A backscatter node encodes bits by switching the electrical load seen by
// its transducer(s) between two states, changing the re-radiated (antenna
// -mode) wave. The complex reflection coefficient of each state, referenced
// to the transducer impedance, sets the modulation depth — the |gamma_1 -
// gamma_2| / 2 factor that multiplies the backscatter link budget.
#pragma once

#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "piezo/bvd.hpp"
#include "piezo/network.hpp"

namespace vab::piezo {

enum class LoadState {
  kOpen,      ///< switch open: no current, gamma = +1 region
  kShort,     ///< switch closed to ground: gamma = -1 region
  kMatched,   ///< absorptive load (energy harvesting state)
  kCustom     ///< arbitrary impedance
};

struct SwitchModel {
  double on_resistance_ohms = 2.0;   ///< analog-switch Ron
  double off_capacitance_farads = 5e-12;
  double insertion_loss_db = 0.3;    ///< through-path loss when routing
};

class LoadModulator {
 public:
  /// `z_reference` is the impedance the reflection coefficient is referenced
  /// to — the transducer's electrical impedance at the carrier.
  LoadModulator(cplx z_reference, SwitchModel sw = {});

  /// Reflection coefficient of a load state at frequency `f_hz` (the switch
  /// parasitics make it slightly frequency dependent).
  cplx gamma(LoadState state, double f_hz, cplx z_custom = {}) const;

  /// Differential backscatter amplitude between two states:
  /// |gamma_a - gamma_b| / 2, the standard modulation-depth factor.
  double modulation_depth(LoadState a, LoadState b, double f_hz) const;

  /// The average of the two states' gamma leaks into the carrier (static
  /// reflection); its magnitude is what SIC must remove.
  double static_reflection(LoadState a, LoadState b, double f_hz) const;

  const SwitchModel& switch_model() const { return sw_; }
  cplx reference_impedance() const { return z_ref_; }

 private:
  cplx z_ref_;
  SwitchModel sw_;
};

}  // namespace vab::piezo
