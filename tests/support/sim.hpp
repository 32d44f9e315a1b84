// Scenario fixtures for tests.
#pragma once

#include "sim/scenario.hpp"

namespace vab::sim {

/// River deployment under a hostile channel: Gilbert–Elliott burst loss at
/// ~20% mean, duty-cycle wake misses and occasional shadowing dips.
Scenario hostile_river_scenario();

}  // namespace vab::sim
