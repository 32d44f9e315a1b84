// FM0 (bi-phase space) line coding for the backscatter uplink.
//
// FM0 inverts the level at every bit boundary and additionally at mid-bit
// for a data 0. The resulting chip stream is DC-free, which (a) keeps the
// modulation sidebands away from the carrier where the self-interference
// residue sits and (b) makes decoding phase-ambiguity tolerant: bit decisions
// compare the two half-bit chips, not their absolute sign.
#pragma once

#include "common/types.hpp"

namespace vab::phy {

/// Encodes bits into FM0 chips (two chips per bit, values 0/1). The encoder
/// starts from level 1 (or `initial_level`).
bitvec fm0_encode(const bitvec& bits, std::uint8_t initial_level = 1);

/// Soft decode from per-chip amplitudes (sign carries the level): for each
/// bit, |c1 + c2| vs |c1 - c2| decides 1 vs 0. Phase-ambiguity tolerant.
bitvec fm0_decode_soft(const rvec& chip_soft);

/// Preamble chip pattern: a Barker-13 derived sequence containing an FM0
/// coding violation so it cannot appear in data. Values 0/1.
bitvec fm0_preamble_chips();

/// Preamble as +/-1 soft levels (for matched filtering).
rvec fm0_preamble_levels();

}  // namespace vab::phy
