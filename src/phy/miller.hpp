// Miller-modulated subcarrier (MMS) line coding, the EPC-Gen2-style
// alternative to FM0.
//
// Miller-M multiplies a Miller baseband sequence by a square subcarrier of M
// cycles per bit. The data spectrum concentrates around M x bitrate — even
// further from the carrier than FM0 — buying extra margin against the
// self-interference residue at the cost of M x bandwidth. The paper's
// systems run FM0 at the "same throughput" comparison point; Miller is the
// natural extension for residue-limited links.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::phy {

/// Encodes bits into Miller-M chips (2*M chips = half-subcarrier-cycles per
/// bit, values 0/1). M must be 2, 4 or 8.
bitvec miller_encode(const bitvec& bits, unsigned m);

/// Soft decode from per-chip amplitudes (signs carry the levels). Coherent
/// within each bit, tolerant of a global sign flip.
bitvec miller_decode_soft(const rvec& chip_soft, unsigned m);

/// Chips per encoded bit for Miller-M.
inline std::size_t miller_chips_per_bit(unsigned m) { return 2u * m; }

}  // namespace vab::phy
