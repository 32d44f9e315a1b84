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

/// Streaming FIR filter over real or complex samples. Keeps state across
/// calls so long signals can be processed in chunks.
class FirFilter {
 public:
  explicit FirFilter(rvec taps);

  double process(double x);
  cplx process(cplx x);

  rvec process(const rvec& x);
  cvec process(const cvec& x);

  /// Block filtering into a caller-provided buffer (resized to x.size());
  /// allocation-free when `y` already has capacity.
  void process(const rvec& x, rvec& y);
  void process(const cvec& x, cvec& y);

  /// Group delay of a linear-phase filter in samples.
  double group_delay() const { return (static_cast<double>(taps_.size()) - 1.0) / 2.0; }

  void reset();
  const rvec& taps() const { return taps_; }

 private:
  rvec taps_;
  cvec state_;       // circular delay line (complex covers both cases)
  std::size_t pos_ = 0;
};

/// Frequency response magnitude of an FIR at `f_hz` (fs `fs_hz`).
double fir_response_at(const rvec& taps, double f_hz, double fs_hz);

/// Filter-then-decimate computing only the kept outputs: out[j] equals the
/// streaming FirFilter output at sample `offset + j*m` (zero initial state),
/// for every such index < x.size(). Each output is evaluated with the exact
/// tap order of FirFilter::process, so the result is bit-identical to
/// filtering the whole block and discarding all but every m-th sample —
/// at 1/m of the cost.
void fir_filter_decimate(const rvec& taps, const cvec& x, std::size_t m,
                         std::size_t offset, cvec& out);

}  // namespace vab::dsp
