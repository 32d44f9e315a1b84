// Pulse-interval encoding (PIE) for the reader-to-node downlink.
//
// The reader amplitude-modulates its carrier: every symbol is a high
// interval followed by a fixed low pulse; a data-1 high interval is twice as
// long as a data-0's. A node decodes with a passive envelope detector and a
// threshold — no mixer, no clock recovery, microwatt-scale listening power.
#pragma once

#include <optional>

#include "common/types.hpp"

namespace vab::phy {

/// Data-0 high duration (the reference interval, "tari").
inline constexpr double kPieTariS = 12.5e-3;
inline constexpr double kPiePwRatio = 0.5;   ///< low-pulse width as a fraction of tari
inline constexpr double kPieOneRatio = 2.0;  ///< data-1 high duration in taris
/// Frame delimiter: a low pulse this many taris long precedes the data.
inline constexpr double kPieDelimiterTaris = 4.0;

/// Expands bits into an on/off envelope (1 = carrier on) sampled at `fs_hz`,
/// starting with the frame delimiter.
rvec pie_encode_envelope(const bitvec& bits, double fs_hz);

/// Decodes an envelope (arbitrary positive amplitude, 0 when off) back into
/// bits. Threshold is adaptive (half the observed high level). Returns
/// nullopt if no delimiter is found.
std::optional<bitvec> pie_decode_envelope(const rvec& envelope, double fs_hz);

}  // namespace vab::phy
