// Fractional-delay interpolation for reading a heavily-oversampled signal
// between its samples.
#pragma once

#include "common/types.hpp"

namespace vab::dsp {

/// Fractional-delay interpolation: sample x at continuous index `t`
/// (linear between neighbors; clamped at the ends).
cplx sample_at(const cvec& x, double t);

}  // namespace vab::dsp
