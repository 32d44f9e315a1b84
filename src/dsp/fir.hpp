// Windowed-sinc FIR design and streaming FIR filtering.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/window.hpp"

namespace vab::dsp {

/// Designs a linear-phase low-pass FIR with cutoff `cutoff_hz` at sample
/// rate `fs_hz` using the window method. `taps` is forced odd.
rvec design_lowpass(double cutoff_hz, double fs_hz, std::size_t taps,
                    WindowType window = WindowType::kHamming,
                    double kaiser_beta = 8.6);

/// Streaming FIR filter over complex samples. Keeps state across calls so
/// long signals can be processed in chunks.
class FirFilter {
 public:
  explicit FirFilter(rvec taps);

  cplx process(cplx x);

  cvec process(const cvec& x);

  /// Block filtering into a caller-provided buffer (resized to x.size());
  /// allocation-free when `y` already has capacity.
  void process(const cvec& x, cvec& y);

  const rvec& taps() const { return taps_; }

 private:
  rvec taps_;
  cvec state_;  // circular delay line
  std::size_t pos_ = 0;
};

/// Filter-then-decimate computing only the kept outputs: out[j] equals the
/// streaming FirFilter output at sample `offset + j*m` (zero initial state),
/// for every such index < x.size(). Each output is evaluated with the exact
/// tap order of FirFilter::process, so the result is bit-identical to
/// filtering the whole block and discarding all but every m-th sample —
/// at 1/m of the cost.
void fir_filter_decimate(const rvec& taps, const cvec& x, std::size_t m,
                         std::size_t offset, cvec& out);

}  // namespace vab::dsp
