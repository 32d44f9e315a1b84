#include "phy/miller.hpp"

#include <cmath>
#include <stdexcept>

namespace vab::phy {

namespace {
void validate_m(unsigned m) {
  if (m != 2 && m != 4 && m != 8)
    throw std::invalid_argument("Miller M must be 2, 4 or 8");
}
}  // namespace

bitvec miller_encode(const bitvec& bits, unsigned m) {
  validate_m(m);
  const std::size_t cpb = miller_chips_per_bit(m);
  bitvec chips;
  chips.reserve(bits.size() * cpb);

  std::uint8_t level = 1;  // baseband phase state
  for (std::size_t b = 0; b < bits.size(); ++b) {
    // Boundary rule: invert between two successive data-0s.
    if (b > 0 && !(bits[b - 1] & 1u) && !(bits[b] & 1u)) level ^= 1u;
    for (std::size_t k = 0; k < cpb; ++k) {
      // Data-1 inverts the baseband mid-bit.
      const std::uint8_t baseband =
          ((bits[b] & 1u) && k >= cpb / 2) ? static_cast<std::uint8_t>(level ^ 1u)
                                           : level;
      const std::uint8_t subcarrier = static_cast<std::uint8_t>(k & 1u);
      chips.push_back(baseband ^ subcarrier);
    }
    if (bits[b] & 1u) level ^= 1u;  // data-1 leaves the phase inverted
  }
  return chips;
}

bitvec miller_decode_soft(const rvec& chip_soft, unsigned m) {
  validate_m(m);
  const std::size_t cpb = miller_chips_per_bit(m);
  if (chip_soft.size() % cpb != 0)
    throw std::invalid_argument("chip count not a multiple of 2*M");

  bitvec bits;
  bits.reserve(chip_soft.size() / cpb);
  for (std::size_t b = 0; b * cpb < chip_soft.size(); ++b) {
    double first = 0.0, second = 0.0;
    for (std::size_t k = 0; k < cpb; ++k) {
      // Demultiply the subcarrier, then integrate each half-bit.
      const double sub = (k & 1u) ? -1.0 : 1.0;
      const double v = chip_soft[b * cpb + k] * sub;
      if (k < cpb / 2)
        first += v;
      else
        second += v;
    }
    // Mid-bit baseband inversion marks a data-1 (the inverse of FM0's rule).
    bits.push_back(std::abs(first - second) > std::abs(first + second) ? 1 : 0);
  }
  return bits;
}

}  // namespace vab::phy
