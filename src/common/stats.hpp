// Small statistics helpers used by the Monte-Carlo engine and benches.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::common {

double mean(const rvec& v);
double percentile(rvec v, double p);  // p in [0,100]; by value: sorts a copy
double max_value(const rvec& v);

/// Evenly spaced points from lo to hi inclusive.
rvec linspace(double lo, double hi, std::size_t n);

}  // namespace vab::common
