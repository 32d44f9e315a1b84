#include "vanatta/array.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::vanatta {

VanAttaArray::VanAttaArray(VanAttaConfig cfg) : cfg_(cfg) {
  if (cfg_.n_elements == 0) throw std::invalid_argument("array needs >= 1 element");
  if (cfg_.f_design_hz <= 0.0)
    throw std::invalid_argument("design frequency must be > 0");
  if (cfg_.element_efficiency <= 0.0 || cfg_.element_efficiency > 1.0)
    throw std::invalid_argument("element efficiency must be in (0, 1]");
  if (cfg_.mode == ArrayMode::kSingleElement) cfg_.n_elements = 1;
  if (cfg_.spacing_m <= 0.0)
    cfg_.spacing_m = cfg_.sound_speed_mps / cfg_.f_design_hz / 2.0;  // lambda/2

  const std::size_t n = cfg_.n_elements;
  pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    pos_[i] =
        (static_cast<double>(i) - static_cast<double>(n - 1) / 2.0) * cfg_.spacing_m;
  phase_err_.assign(n, 0.0);
  gain_err_.assign(n, 1.0);
}

std::size_t VanAttaArray::partner(std::size_t i) const {
  if (i >= cfg_.n_elements) throw std::out_of_range("element index");
  switch (cfg_.mode) {
    case ArrayMode::kVanAtta: return cfg_.n_elements - 1 - i;
    case ArrayMode::kFixedPhase:
    case ArrayMode::kSingleElement: return i;
  }
  return i;
}

void VanAttaArray::set_phase_errors(std::vector<double> errors) {
  if (errors.size() != cfg_.n_elements)
    throw std::invalid_argument("need one phase error per element");
  phase_err_ = std::move(errors);
}

void VanAttaArray::set_gain_errors(std::vector<double> gains) {
  if (gains.size() != cfg_.n_elements)
    throw std::invalid_argument("need one gain per element");
  for (double g : gains)
    if (g < 0.0) throw std::invalid_argument("gains must be >= 0");
  gain_err_ = std::move(gains);
}

double VanAttaArray::element_pattern(double theta) const {
  const double c = std::cos(theta);
  if (c <= 0.0) return 0.0;  // no backlobe
  return std::pow(c, cfg_.directivity_q);
}

double VanAttaArray::through_gain() const {
  // acoustic->electrical, line, switch, electrical->acoustic.
  const double line = std::pow(10.0, -cfg_.line_loss_db / 20.0);
  const double sw = std::pow(10.0, -cfg_.switch_insertion_db / 20.0);
  return cfg_.element_efficiency * cfg_.element_efficiency * line * sw;
}

cplx VanAttaArray::state_factor(int state) const {
  if (state != 0 && state != 1) throw std::invalid_argument("state must be 0 or 1");
  switch (cfg_.scheme) {
    case ModulationScheme::kOnOff: return state == 1 ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
    case ModulationScheme::kPolarity:
      return state == 1 ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
  }
  return {};
}

cplx VanAttaArray::bistatic_response(double theta_in, double theta_out, double f_hz,
                                     int state) const {
  if (f_hz <= 0.0) throw std::invalid_argument("frequency must be > 0");
  const double k = common::kTwoPi * f_hz / cfg_.sound_speed_mps;
  const double si = std::sin(theta_in);
  const double so = std::sin(theta_out);
  const double pat = element_pattern(theta_in) * element_pattern(theta_out);
  const cplx mod = state_factor(state);
  const cplx line_rot = std::exp(cplx{0.0, -kLinePhaseRad});

  cplx acc{};
  for (std::size_t i = 0; i < cfg_.n_elements; ++i) {
    const std::size_t p = partner(i);
    const double phase =
        -k * (pos_[i] * si + pos_[p] * so) + phase_err_[i] + phase_err_[p];
    acc += gain_err_[i] * gain_err_[p] * std::exp(cplx{0.0, phase});
  }
  return acc * pat * through_gain() * mod * line_rot;
}

double VanAttaArray::monostatic_gain_db(double theta, double f_hz) const {
  // Reflective state: for on/off keying state 1; for polarity either state
  // has the same magnitude.
  const cplx r = bistatic_response(theta, theta, f_hz, 1);
  const double p = std::norm(r);
  return 10.0 * std::log10(std::max(p, 1e-30));
}

double VanAttaArray::modulation_amplitude(double theta, double f_hz) const {
  const cplx r1 = bistatic_response(theta, theta, f_hz, 1);
  const cplx r0 = bistatic_response(theta, theta, f_hz, 0);
  return std::abs(r1 - r0) / 2.0;
}

}  // namespace vab::vanatta
