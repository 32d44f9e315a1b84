#include "dsp/resample.hpp"

#include <stdexcept>

namespace vab::dsp {

cplx sample_at(const cvec& x, double t) {
  if (x.empty()) throw std::invalid_argument("sample_at on empty signal");
  if (t <= 0.0) return x.front();
  const auto last = static_cast<double>(x.size() - 1);
  if (t >= last) return x.back();
  const auto i = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i);
  return x[i] + frac * (x[i + 1] - x[i]);
}

}  // namespace vab::dsp
