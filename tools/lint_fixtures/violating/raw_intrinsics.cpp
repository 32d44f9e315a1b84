// expect: simd-intrinsics-confined:6
// A decimator "optimization" reaching for raw intrinsics outside
// src/dsp/simd/. ISA-specific code must live behind the runtime dispatch
// layer so the scalar-vs-SIMD bit-identity suite covers every instruction it
// can emit; nothing compares this loop against the forced-scalar path.
#include <immintrin.h>

#include <cstddef>

namespace vab::dsp {

double sum_avx2(const double* p, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(p + i));
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) s += p[i];
  return s;
}

#if defined(__aarch64__)
double pair_sum_neon(const double* p) {
  const float64x2_t v = vld1q_f64(p);
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}
#endif

}  // namespace vab::dsp
