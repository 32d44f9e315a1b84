#include "vanatta/planar.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace vab::vanatta {

PlanarVanAttaArray::PlanarVanAttaArray(PlanarVanAttaConfig cfg) : cfg_(cfg) {
  if (cfg_.rows == 0 || cfg_.cols == 0)
    throw std::invalid_argument("planar array needs rows, cols >= 1");
  if (cfg_.f_design_hz <= 0.0)
    throw std::invalid_argument("design frequency must be > 0");
  if (cfg_.element_efficiency <= 0.0 || cfg_.element_efficiency > 1.0)
    throw std::invalid_argument("element efficiency must be in (0, 1]");
  if (cfg_.spacing_m <= 0.0)
    cfg_.spacing_m = cfg_.sound_speed_mps / cfg_.f_design_hz / 2.0;

  const std::size_t n = size();
  x_.resize(n);
  y_.resize(n);
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const std::size_t i = r * cfg_.cols + c;
      x_[i] = (static_cast<double>(c) - static_cast<double>(cfg_.cols - 1) / 2.0) *
              cfg_.spacing_m;
      y_[i] = (static_cast<double>(r) - static_cast<double>(cfg_.rows - 1) / 2.0) *
              cfg_.spacing_m;
    }
  }
}

std::size_t PlanarVanAttaArray::partner(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("element index");
  const std::size_t r = i / cfg_.cols;
  const std::size_t c = i % cfg_.cols;
  if (cfg_.point_reflection_pairing) {
    // Point reflection through the array center: retro in both axes.
    return (cfg_.rows - 1 - r) * cfg_.cols + (cfg_.cols - 1 - c);
  }
  // Per-row mirror: retro in azimuth only (the linear-array behaviour).
  return r * cfg_.cols + (cfg_.cols - 1 - c);
}

double PlanarVanAttaArray::element_pattern(const Direction& d) const {
  // Direction cosine toward broadside.
  const double u = std::sin(d.azimuth_rad) * std::cos(d.elevation_rad);
  const double v = std::sin(d.elevation_rad);
  const double w2 = 1.0 - u * u - v * v;
  if (w2 <= 0.0) return 0.0;
  return std::pow(std::sqrt(w2), cfg_.directivity_q);
}

double PlanarVanAttaArray::through_gain() const {
  const double line = std::pow(10.0, -cfg_.line_loss_db / 20.0);
  const double sw = std::pow(10.0, -cfg_.switch_insertion_db / 20.0);
  return cfg_.element_efficiency * cfg_.element_efficiency * line * sw;
}

cplx PlanarVanAttaArray::state_factor(int state) const {
  if (state != 0 && state != 1) throw std::invalid_argument("state must be 0 or 1");
  switch (cfg_.scheme) {
    case ModulationScheme::kOnOff: return state == 1 ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
    case ModulationScheme::kPolarity:
      return state == 1 ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
  }
  return {};
}

cplx PlanarVanAttaArray::bistatic_response(const Direction& in, const Direction& out,
                                           double f_hz, int state) const {
  if (f_hz <= 0.0) throw std::invalid_argument("frequency must be > 0");
  const double k = common::kTwoPi * f_hz / cfg_.sound_speed_mps;
  const double ui = std::sin(in.azimuth_rad) * std::cos(in.elevation_rad);
  const double vi = std::sin(in.elevation_rad);
  const double uo = std::sin(out.azimuth_rad) * std::cos(out.elevation_rad);
  const double vo = std::sin(out.elevation_rad);
  const double pat = element_pattern(in) * element_pattern(out);
  const cplx mod = state_factor(state);

  cplx acc{};
  for (std::size_t i = 0; i < size(); ++i) {
    const std::size_t p = partner(i);
    const double phase = -k * (x_[i] * ui + y_[i] * vi + x_[p] * uo + y_[p] * vo);
    acc += std::exp(cplx{0.0, phase});
  }
  return acc * pat * through_gain() * mod;
}

double PlanarVanAttaArray::monostatic_gain_db(const Direction& d, double f_hz) const {
  const double p = std::norm(bistatic_response(d, d, f_hz, 1));
  return 10.0 * std::log10(std::max(p, 1e-30));
}

}  // namespace vab::vanatta
