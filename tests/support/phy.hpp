// PHY oracles for tests: hard-decision line-code decoders (the receive chain
// only decodes soft), the OOK bit-error-rate closed forms, and the envelope
// front end as a step scatter then an output combine.
#pragma once

#include "common/types.hpp"
#include "dsp/step_signal.hpp"
#include "phy/modem.hpp"

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

/// `demod.front_end(capture, out)` as it ran before its output gather: the
/// prefix sums H and T of the demodulator's taps, each step of the capture
/// scattered onto the outputs it is inside of (o1 += d H, o2 += conj(d) T,
/// outputs zeroed first, steps in order), then per output the envelope b
/// its window holds whole, a1 = o1 + b H[L], a2 = o2 + conj(b) T[L] and
/// (a1 + e^{-2j omega n} a2) / 2. The bit-exact oracle of the library's
/// front end.
void front_end_scatter_reference(const ReaderDemodulator& demod,
                                 const dsp::StepSignal& capture, cvec& out);

}  // namespace vab::phy
