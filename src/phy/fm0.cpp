#include "phy/fm0.hpp"

#include <cmath>
#include <stdexcept>

namespace vab::phy {

bitvec fm0_encode(const bitvec& bits, std::uint8_t initial_level) {
  bitvec chips;
  chips.reserve(bits.size() * 2);
  std::uint8_t level = initial_level & 1u;
  for (auto b : bits) {
    // Invert at the bit boundary.
    level ^= 1u;
    chips.push_back(level);
    // Data 0: invert again mid-bit; data 1: hold.
    if (!(b & 1u)) level ^= 1u;
    chips.push_back(level);
  }
  return chips;
}

bitvec fm0_decode_soft(const rvec& chip_soft) {
  if (chip_soft.size() % 2 != 0) throw std::invalid_argument("chip count must be even");
  bitvec bits;
  bits.reserve(chip_soft.size() / 2);
  for (std::size_t i = 0; i < chip_soft.size(); i += 2) {
    const double same = std::abs(chip_soft[i] + chip_soft[i + 1]);
    const double diff = std::abs(chip_soft[i] - chip_soft[i + 1]);
    bits.push_back(same > diff ? 1 : 0);
  }
  return bits;
}

bitvec fm0_preamble_chips() {
  // Barker-13 (+1 +1 +1 +1 +1 -1 -1 +1 +1 -1 +1 -1 +1) mapped to chip levels.
  // Its +/-1 autocorrelation sidelobes are <= 1/13 of the peak; runs are kept
  // short enough to survive the receiver's AC-coupled (carrier-notched)
  // front end.
  static const bitvec kPreamble = {1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1};
  return kPreamble;
}

rvec fm0_preamble_levels() {
  const bitvec chips = fm0_preamble_chips();
  rvec out(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) out[i] = chips[i] ? 1.0 : -1.0;
  return out;
}

}  // namespace vab::phy
