// Metric readers for tests, over a registry's JSON snapshot (the same text a
// metrics file carries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace vab::obs {

/// Value of counter `name` in `reg`; 0 when no counter has that name.
std::uint64_t counter_value(const Registry& reg, const std::string& name);

/// Number of label series `family{...}` registered in `reg`, not counting
/// the shared `family{overflow}` series.
std::size_t series_count(const Registry& reg, const std::string& family);

}  // namespace vab::obs
