#include "support/common.hpp"

#include <cmath>

namespace vab::common {

double wilson_half_width(std::size_t errors, std::size_t trials, double z) {
  if (trials == 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(errors) / n;
  const double z2 = z * z;
  return z / (1.0 + z2 / n) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

}  // namespace vab::common
