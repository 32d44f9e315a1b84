#include "dsp/iir.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::dsp {

OnePole::OnePole(double cutoff_hz, double fs_hz) {
  if (cutoff_hz <= 0.0 || fs_hz <= 0.0 || cutoff_hz >= fs_hz / 2.0)
    throw std::invalid_argument("one-pole cutoff must be in (0, fs/2)");
  alpha_ = 1.0 - std::exp(-common::kTwoPi * cutoff_hz / fs_hz);
}

double OnePole::process(double x) {
  y_ += alpha_ * (x - y_);
  return y_;
}

}  // namespace vab::dsp
