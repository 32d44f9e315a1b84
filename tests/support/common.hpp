// Statistics references for tests.
#pragma once

#include <cstddef>

namespace vab::common {

/// Binomial (Wilson) confidence half-width for an observed error rate over
/// a finite number of trials.
double wilson_half_width(std::size_t errors, std::size_t trials, double z = 1.96);

}  // namespace vab::common
