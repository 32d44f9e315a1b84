// expect: rng-parallel-capture:2
//
// The batch sampler draws too: filling from (or reaching into the state of)
// a captured Rng inside a parallel body races every worker on one stream.
#include <cstddef>

namespace fixture {

void broken_noise(Rng& rng, double* out, std::size_t blocks, std::size_t len) {
  parallel_for(std::size_t{0}, blocks, [&](std::size_t b) {
    dsp::simd::fill_gaussian(rng, out + b * len, len);  // finding
  });
}

void broken_state(Rng& rng, std::size_t n) {
  parallel_for(std::size_t{0}, n, [&](std::size_t) {
    consume(rng.raw_state());  // finding
  });
}

}  // namespace fixture
