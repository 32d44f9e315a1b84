// Channel references for tests: Thorp's absorption fit, the typed
// absorption coefficient and Wenz NSD the library evaluates internally, and
// a single-path tap set.
#pragma once

#include <vector>

#include "channel/absorption.hpp"
#include "channel/multipath.hpp"
#include "channel/noise.hpp"
#include "common/units.hpp"

namespace vab::channel {

/// Thorp (1967) deep-water absorption coefficient at frequency `f`.
common::DbPerM thorp_absorption(common::Hz f);

/// Francois-Garrison absorption coefficient at `f`: the coefficient behind
/// `Absorption(f, w)`, bit for bit.
common::DbPerM francois_garrison_absorption(common::Hz f, const WaterProperties& w);

/// Total Wenz noise spectral density at `f` (dB re 1 uPa^2/Hz): the NSD
/// behind `noise_level`, bit for bit.
common::Db ambient_nsd(common::Hz f, const NoiseConditions& cond);

/// A single line-of-sight tap with the given one-way amplitude gain and
/// delay.
std::vector<PathTap> single_tap(double gain, double delay_s);

}  // namespace vab::channel
