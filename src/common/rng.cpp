#include "common/rng.hpp"

#include <cmath>

namespace vab::common {

Mt19937_64::Mt19937_64(result_type seed) : pos_(kWords) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const result_type prev = x_[i - 1];
    x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k) x_[k] = twist_word(x_[k], x_[k + 1], x_[k + kShift]);
  for (; k < kWords - 1; ++k)
    x_[k] = twist_word(x_[k], x_[k + 1], x_[k + kShift - kWords]);
  x_[kWords - 1] = twist_word(x_[kWords - 1], x_[0], x_[kShift - 1]);
  pos_ = 0;
}

double Rng::gaussian() {
  double ret;
  if (has_saved_normal_) {
    has_saved_normal_ = false;
    ret = saved_normal_;
  } else {
    double x, y, r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    saved_normal_ = x * mult;
    has_saved_normal_ = true;
    ret = y * mult;
  }
  // Unit stddev, zero mean, as normal_distribution applies them: the
  // "+ 0.0" turns the -0.0 that r2 == 1 yields into +0.0.
  return ret * 1.0 + 0.0;
}

cplx Rng::complex_gaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {s * gaussian(), s * gaussian()};
}

bitvec Rng::random_bits(std::size_t n) {
  bitvec out(n);
  for (auto& b : out) b = coin() ? 1 : 0;
  return out;
}

}  // namespace vab::common
