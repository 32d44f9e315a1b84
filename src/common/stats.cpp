#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vab::common {

double mean(const rvec& v) {
  if (v.empty()) throw std::invalid_argument("mean of empty vector");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const rvec& v) {
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(const rvec& v) { return std::sqrt(variance(v)); }

double median(rvec v) { return percentile(std::move(v), 50.0); }

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

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double wilson_half_width(std::size_t errors, std::size_t trials, double z) {
  if (trials == 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(errors) / n;
  const double z2 = z * z;
  return z / (1.0 + z2 / n) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

rvec linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  rvec out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
  return out;
}

rvec logspace(double lo, double hi, std::size_t n) {
  if (lo <= 0.0 || hi <= 0.0)
    throw std::invalid_argument("logspace needs positive bounds");
  rvec exps = linspace(std::log10(lo), std::log10(hi), n);
  for (auto& e : exps) e = std::pow(10.0, e);
  return exps;
}

}  // namespace vab::common
