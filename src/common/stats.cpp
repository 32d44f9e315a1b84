#include "common/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace vab::common {

double mean(const rvec& v) {
  if (v.empty()) throw std::invalid_argument("mean of empty vector");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(rvec v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of empty vector");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double max_value(const rvec& v) {
  if (v.empty()) throw std::invalid_argument("max of empty vector");
  return *std::max_element(v.begin(), v.end());
}

rvec linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  rvec out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
  return out;
}

}  // namespace vab::common
