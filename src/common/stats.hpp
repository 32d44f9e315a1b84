// Small statistics helpers used by the Monte-Carlo engine and benches.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::common {

double mean(const rvec& v);
double variance(const rvec& v);   // population variance
double stddev(const rvec& v);
double median(rvec v);            // by value: sorts a copy
double percentile(rvec v, double p);  // p in [0,100]
double max_value(const rvec& v);

/// Running mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Binomial (Wilson) confidence half-width for an observed error rate; used
/// to report BER uncertainty from a finite number of bits.
double wilson_half_width(std::size_t errors, std::size_t trials, double z = 1.96);

/// Evenly spaced points from lo to hi inclusive.
rvec linspace(double lo, double hi, std::size_t n);

/// Logarithmically spaced points from lo to hi inclusive (lo, hi > 0).
rvec logspace(double lo, double hi, std::size_t n);

}  // namespace vab::common
