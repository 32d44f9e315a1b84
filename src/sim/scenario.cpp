#include "sim/scenario.hpp"

#include <algorithm>

namespace vab::sim {

Environment river_environment() {
  Environment e;
  e.name = "river";
  e.water.temperature_c = 15.0;
  e.water.salinity_ppt = 0.5;
  e.water.depth_m = 5.0;
  e.water.ph = 7.5;
  e.noise.shipping = 0.6;
  e.noise.wind_speed_mps = 4.0;
  e.noise.site_floor_db = 56.0;  // urban river: boat traffic, machinery
  e.multipath.water_depth_m = 5.0;
  e.multipath.surface_loss_db = 3.0;  // wind-roughened surface at 18.5 kHz
  e.multipath.bottom_loss_db = 12.0;  // soft mud bottom
  e.multipath.max_order = 4;
  e.multipath.absorption_freq_hz = 18500.0;
  e.multipath.water = e.water;
  // Shallow waveguide: between cylindrical and practical spreading.
  e.spreading_coeff = 12.0;
  e.fading_sigma_db = 3.0;
  return e;
}

Environment ocean_environment() {
  Environment e;
  e.name = "ocean";
  e.water.temperature_c = 12.0;
  e.water.salinity_ppt = 35.0;
  e.water.depth_m = 20.0;
  e.water.ph = 8.0;
  e.noise.shipping = 0.4;
  e.noise.wind_speed_mps = 3.0;   // calm sea state for the deployment window
  e.noise.site_floor_db = 42.0;
  e.multipath.water_depth_m = 20.0;
  e.multipath.surface_loss_db = 2.0;  // mild swell
  e.multipath.bottom_loss_db = 10.0;  // sand
  e.multipath.max_order = 4;
  e.multipath.absorption_freq_hz = 18500.0;
  e.multipath.water = e.water;
  e.spreading_coeff = 14.0;  // coastal duct, not fully spherical
  e.fading_sigma_db = 4.0;
  return e;
}

std::vector<channel::PathTap> forward_taps(const Scenario& s) {
  channel::MultipathConfig mp = s.env.multipath;
  mp.spreading_coeff = s.env.spreading_coeff;
  return channel::image_method_taps(common::Meters{s.range_m},
                                    common::Meters{s.reader.depth_m},
                                    common::Meters{s.node.depth_m},
                                    s.env.sound_speed(), mp);
}

std::vector<channel::PathTap> return_taps(const Scenario& s) {
  channel::MultipathConfig mp = s.env.multipath;
  mp.spreading_coeff = s.env.spreading_coeff;
  return channel::image_method_taps(common::Meters{s.range_m},
                                    common::Meters{s.node.depth_m},
                                    common::Meters{s.reader.depth_m},
                                    s.env.sound_speed(), mp);
}

std::vector<channel::PathTap> blast_taps(const Scenario& s) {
  const double sep = std::max(s.reader.tx_rx_separation_m, 0.1);
  return {channel::PathTap{sep / s.env.sound_speed(), 1.0 / sep, 0, 0}};
}

namespace {
Scenario base_scenario(Environment env) {
  Scenario s;
  s.env = std::move(env);
  s.phy.fs_hz = 96000.0;
  s.phy.carrier_hz = 18500.0;
  s.phy.bitrate_bps = 500.0;
  s.reader.depth_m = 2.0;
  s.node.depth_m = s.env.multipath.water_depth_m / 2.0;
  return s;
}
}  // namespace

Scenario vab_river_scenario() {
  Scenario s = base_scenario(river_environment());
  s.node.array.n_elements = 8;
  s.node.array.mode = vanatta::ArrayMode::kVanAtta;
  s.node.array.scheme = vanatta::ModulationScheme::kPolarity;
  s.node.array.element_efficiency = 0.75;  // matched (the E7 co-design)
  s.node.array.f_design_hz = s.phy.carrier_hz;
  return s;
}

Scenario vab_ocean_scenario() {
  Scenario s = vab_river_scenario();
  s.env = ocean_environment();
  s.node.depth_m = s.env.multipath.water_depth_m / 2.0;
  return s;
}

Scenario pab_river_scenario() {
  Scenario s = base_scenario(river_environment());
  s.node.array.n_elements = 1;
  s.node.array.mode = vanatta::ArrayMode::kSingleElement;
  s.node.array.scheme = vanatta::ModulationScheme::kOnOff;
  s.node.array.element_efficiency = 0.55;  // no matching co-design
  s.node.array.f_design_hz = s.phy.carrier_hz;
  return s;
}

}  // namespace vab::sim
