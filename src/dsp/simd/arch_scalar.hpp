// Width-1 "vector" architecture: the reference every wider ISA must match
// bit-for-bit. The kernel templates in kernels.hpp run these ops for their
// main loop when instantiated at kLanes == 1 *and* for every remainder tail
// of a wider instantiation, so the scalar path is the same code, not a
// parallel implementation that could drift.
//
// The op set mirrors what libstdc++'s std::complex arithmetic emits for
// finite values: componentwise add/sub, (a*c - b*d, b*c + a*d) products.
// The imaginary part of cmul writes b*c + a*d where the builtin computes
// a*d + b*c — the same two exact products folded by one commutative IEEE
// addition, so the bits agree.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp::simd {

struct ScalarArch {
  static constexpr std::size_t kLanes = 1;
  using V = cplx;    // one complex lane
  using R = double;  // broadcast real factor

  static V zero() { return cplx{}; }
  static V load(const cplx* p) { return *p; }
  static V load_stride(const cplx* p, std::size_t /*m*/) { return *p; }
  static void store(cplx* p, V v) { *p = v; }
  static R broadcast_real(double s) { return s; }
  static V add(V a, V b) { return cplx{a.real() + b.real(), a.imag() + b.imag()}; }
  static V sub(V a, V b) { return cplx{a.real() - b.real(), a.imag() - b.imag()}; }
  static V mul_real(V a, R s) { return cplx{s * a.real(), s * a.imag()}; }
  static V cmul(V a, V b) {
    return cplx{a.real() * b.real() - a.imag() * b.imag(),
                a.imag() * b.real() + a.real() * b.imag()};
  }
};

}  // namespace vab::dsp::simd
