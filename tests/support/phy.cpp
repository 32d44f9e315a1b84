#include "support/phy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "phy/ber.hpp"
#include "phy/miller.hpp"

namespace vab::phy {

bitvec fm0_decode(const bitvec& chips) {
  if (chips.size() % 2 != 0) throw std::invalid_argument("chip count must be even");
  bitvec bits;
  bits.reserve(chips.size() / 2);
  for (std::size_t i = 0; i < chips.size(); i += 2)
    bits.push_back(chips[i] == chips[i + 1] ? 1 : 0);
  return bits;
}

bitvec miller_decode(const bitvec& chips, unsigned m) {
  // miller_decode_soft validates M and the chip count.
  rvec soft(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) soft[i] = chips[i] ? 1.0 : -1.0;
  return miller_decode_soft(soft, m);
}

double ber_ook_coherent(double ebn0) {
  return q_function(std::sqrt(std::max(ebn0, 0.0)));
}

double ber_ook_noncoherent(double ebn0) {
  return 0.5 * std::exp(-std::max(ebn0, 0.0) / 2.0);
}

}  // namespace vab::phy
