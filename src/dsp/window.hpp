// Window functions for FIR design and spectral estimation.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp {

enum class WindowType { kRect, kHann, kHamming, kBlackman, kKaiser };

/// Generates a length-n window. `kaiser_beta` is used only for Kaiser.
rvec make_window(WindowType type, std::size_t n, double kaiser_beta = 8.6);

/// Zeroth-order modified Bessel function of the first kind (for Kaiser).
double bessel_i0(double x);

}  // namespace vab::dsp
