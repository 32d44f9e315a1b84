#include "support/sim.hpp"

namespace vab::sim {

Scenario hostile_river_scenario() {
  Scenario s = vab_river_scenario();
  // ~20% mean burst loss: good->bad 0.05, bad->good 0.30 gives pi_bad ~0.14
  // with loss 1.0 in bursts plus a 5% good-state floor.
  s.fault.burst.p_good_to_bad = 0.05;
  s.fault.burst.p_bad_to_good = 0.30;
  s.fault.burst.loss_good = 0.05;
  s.fault.burst.loss_bad = 1.0;
  s.fault.wake_miss_prob = 0.05;
  s.fault.snr_dip_prob = 0.1;
  s.fault.snr_dip_db = 6.0;
  return s;
}

}  // namespace vab::sim
