// Storage-capacitor dynamics.
#include <gtest/gtest.h>

#include "core/energy.hpp"

namespace vab {
namespace {

TEST(Capacitor, VoltageEnergyRelation) {
  core::CapacitorConfig cfg;
  cfg.capacitance_f = 0.1;
  cfg.initial_voltage_v = 2.5;
  core::StorageCapacitor cap(cfg);
  EXPECT_NEAR(cap.voltage(), 2.5, 1e-9);
  EXPECT_NEAR(cap.energy_j(), 0.5 * 0.1 * 2.5 * 2.5, 1e-9);
}

TEST(Capacitor, ChargeClampsAtMax) {
  core::CapacitorConfig cfg;
  core::StorageCapacitor cap(cfg);
  cap.charge(common::PowerW{1000.0}, common::Seconds{1000.0});  // absurd input
  EXPECT_NEAR(cap.voltage(), cfg.max_voltage_v, 1e-9);
}

TEST(Capacitor, DrawUntilBrownout) {
  core::CapacitorConfig cfg;
  cfg.capacitance_f = 0.01;
  cfg.initial_voltage_v = 2.5;
  cfg.brownout_voltage_v = 1.8;
  core::StorageCapacitor cap(cfg);
  const double usable = cap.usable_energy_j();
  // Draw slightly less than usable: survives.
  EXPECT_TRUE(cap.draw(common::PowerW{usable * 0.9}, common::Seconds{1.0}));
  EXPECT_FALSE(cap.browned_out());
  // Draw past the floor: brownout, voltage pinned at threshold.
  EXPECT_FALSE(cap.draw(common::PowerW{usable}, common::Seconds{1.0}));
  EXPECT_TRUE(cap.browned_out());
  EXPECT_NEAR(cap.voltage(), 1.8, 1e-9);
  // Recharging above threshold clears the brownout.
  cap.charge(common::PowerW{1.0}, common::Seconds{1.0});
  EXPECT_FALSE(cap.browned_out());
}

TEST(Capacitor, ValidatesConfig) {
  core::CapacitorConfig bad;
  bad.brownout_voltage_v = 3.0;
  EXPECT_THROW(core::StorageCapacitor{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace vab
