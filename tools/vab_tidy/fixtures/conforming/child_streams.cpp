// Clean counterpart of rng_capture.cpp: every parallel body derives its own
// per-index stream (or passes the captured Rng straight to child()).
#include <cstddef>

namespace fixture {

void clean_fill(const Rng& rng, double* out, std::size_t n) {
  parallel_for(std::size_t{0}, n, [&](std::size_t i) {
    Rng local = rng.child(i);
    out[i] = local.uniform();
  });
}

void clean_inline_child(const Rng& rng, double* out, std::size_t n) {
  parallel_for(std::size_t{0}, n, [&](std::size_t i) {
    out[i] = trial(rng.child(i));
  });
}

void clean_batch(const Rng& rng, double* out, std::size_t blocks, std::size_t len) {
  parallel_for(std::size_t{0}, blocks, [&](std::size_t b) {
    Rng local = rng.child(b);
    dsp::simd::fill_gaussian(local, out + b * len, len);
  });
}

double clean_param(std::size_t n) {
  return parallel_reduce_seeded(
      std::size_t{0}, n, 0.0,
      [](std::size_t, Rng& worker) { return worker.uniform(); },
      [](double a, double b) { return a + b; });
}

}  // namespace fixture
