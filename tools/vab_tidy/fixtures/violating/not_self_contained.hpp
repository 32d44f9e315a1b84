// expect: self-contained:1
// Uses std::vector but never includes <vector>: compiles only when the
// includer happened to pull it in first.
#pragma once

#include <cstddef>

namespace vab::fixture {

inline std::vector<double> zeros(std::size_t n) {
  return std::vector<double>(n, 0.0);
}

}  // namespace vab::fixture
