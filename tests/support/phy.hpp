// PHY oracles for tests: hard-decision line-code decoders (the receive chain
// only decodes soft) and the OOK bit-error-rate closed forms.
#pragma once

#include "common/types.hpp"

namespace vab::phy {

/// Hard-decision FM0 decode from chips. `chips.size()` must be even.
bitvec fm0_decode(const bitvec& chips);

/// Hard-decision Miller-M decode; `chips.size()` must be a multiple of 2*M.
bitvec miller_decode(const bitvec& chips, unsigned m);

/// Coherent on-off keying BER at a given Eb/N0 (linear): half the distance
/// of antipodal signaling, i.e. Q(sqrt(Eb/N0)).
double ber_ook_coherent(double ebn0_linear);

/// Noncoherent OOK (envelope detection) BER.
double ber_ook_noncoherent(double ebn0_linear);

}  // namespace vab::phy
