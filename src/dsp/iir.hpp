// One-pole IIR smoother: the envelope low-pass of the node's passive
// envelope-detector model.
#pragma once

namespace vab::dsp {

/// One-pole smoother (exponential moving average), used as envelope LPF.
class OnePole {
 public:
  /// Cutoff in Hz at the given sample rate.
  OnePole(double cutoff_hz, double fs_hz);
  double process(double x);
  void reset() { y_ = 0.0; }

 private:
  double alpha_;
  double y_ = 0.0;
};

}  // namespace vab::dsp
