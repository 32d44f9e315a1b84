// Analytic bit-error-rate expressions used by the link-budget Monte-Carlo
// (calibrated against the waveform simulator in tests).
#pragma once

namespace vab::phy {

/// Gaussian tail probability Q(x).
double q_function(double x);

/// Coherent antipodal (BPSK-like) BER at a given Eb/N0 (linear).
double ber_bpsk(double ebn0_linear);

/// FM0 bit error rate from the underlying chip-pair decision at chip SNR
/// `snr_chip_linear` (each bit combines two coherent chips).
double ber_fm0(double snr_chip_linear);

}  // namespace vab::phy
