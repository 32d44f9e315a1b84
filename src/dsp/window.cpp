#include "dsp/window.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace vab::dsp {

double bessel_i0(double x) {
  // Power-series; converges quickly for the argument range we use.
  double sum = 1.0, term = 1.0;
  const double x2 = x * x / 4.0;
  for (int k = 1; k < 64; ++k) {
    term *= x2 / (static_cast<double>(k) * static_cast<double>(k));
    sum += term;
    if (term < 1e-16 * sum) break;
  }
  return sum;
}

rvec make_window(WindowType type, std::size_t n, double kaiser_beta) {
  if (n == 0) return {};
  if (n == 1) return {1.0};
  rvec w(n);
  const double denom = static_cast<double>(n - 1);
  using common::kTwoPi;
  switch (type) {
    case WindowType::kRect:
      for (auto& x : w) x = 1.0;
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * static_cast<double>(i) / denom);
      break;
    case WindowType::kHamming:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) / denom);
      break;
    case WindowType::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = kTwoPi * static_cast<double>(i) / denom;
        w[i] = 0.42 - 0.5 * std::cos(t) + 0.08 * std::cos(2.0 * t);
      }
      break;
    case WindowType::kKaiser: {
      const double i0b = bessel_i0(kaiser_beta);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = 2.0 * static_cast<double>(i) / denom - 1.0;
        w[i] = bessel_i0(kaiser_beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / i0b;
      }
      break;
    }
  }
  return w;
}

}  // namespace vab::dsp
