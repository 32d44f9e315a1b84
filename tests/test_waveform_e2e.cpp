// End-to-end waveform trials: projector -> multipath -> Van Atta node ->
// multipath -> hydrophone -> demodulator, under blast, noise and fading.
// Also calibrates the analytic link budget against the waveform simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "dsp/mixer.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"
#include "phy/modem.hpp"
#include "sim/linkbudget.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"
#include "support/common.hpp"
#include "support/dsp.hpp"
#include "support/sim.hpp"
#include "vanatta/array.hpp"

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

TEST(WaveformE2E, VabDecodesErrorFreeAt40m) {
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 40.0;
  s.env.fading_sigma_db = 0.0;
  common::Rng rng(110);
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

// ---------------------------------------------------------------------------
// Reference trials: run_trial rebuilt test-side from public calls on the
// passband sample grid. The tone, all three channel legs (with the fault
// hook on the return leg), the per-sample reflection and the demodulator's
// passband front end run on arrays of samples; the ambient noise is drawn
// either at baseband after the front end, as the simulator draws it, or at
// passband into the capture before demodulate(), as it was drawn before the
// front-end seam existed. The channel draws (fades, dips) are the
// simulator's in both.
enum class NoiseAt { kBaseband, kPassband };

struct RefOutcome {
  bool sync_found = false;
  bool frame_ok = false;
  std::size_t bit_errors = 0;
  double snr_db = 0.0;
};

/// With the noise at baseband, `demod_out` and `post_sic` (when given)
/// receive the demodulator's result and the capture its sync searched.
RefOutcome reference_trial(const sim::Scenario& sc, std::size_t payload_bits,
                           const common::Rng& job_rng, std::size_t t, NoiseAt noise_at,
                           phy::DemodResult* demod_out = nullptr,
                           cvec* post_sic = nullptr) {
  common::Rng rng = job_rng.child(t);
  const bitvec payload = rng.random_bits(payload_bits);
  const phy::PhyConfig& cfg = sc.phy;
  const double fs = cfg.fs_hz;
  const double c = sc.env.sound_speed();
  const phy::BackscatterModulator modulator(cfg);
  const phy::ReaderDemodulator demodulator(cfg);
  const vanatta::VanAttaArray array(sc.node.array);
  const double theta = sc.node.orientation_rad;
  const double mod_amp =
      std::pow(10.0, sim::kElementTargetStrengthDb / 20.0) *
      std::abs(array.bistatic_response(theta, theta, cfg.carrier_hz, 1) -
               array.bistatic_response(theta, theta, cfg.carrier_hz, 0)) /
      2.0;
  const double static_amp = sc.node.static_reflection_rel * mod_amp;
  const phy::FrameCodec codec(sc.fec);
  const bitvec air_bits = codec.encode(payload);
  std::optional<fault::FaultInjector> injector;
  if (!sc.fault.empty()) injector.emplace(sc.fault);

  const auto fwd_taps = sim::forward_taps(sc);
  const auto ret_taps = sim::return_taps(sc);
  const double sep = std::max(sc.reader.tx_rx_separation_m, 0.1);
  double max_delay = sep / c, ret_delay = 0.0, fwd_direct = fwd_taps.front().delay_s;
  for (const auto& tap : fwd_taps) {
    max_delay = std::max(max_delay, tap.delay_s);
    fwd_direct = std::min(fwd_direct, tap.delay_s);
  }
  for (const auto& tap : ret_taps) ret_delay = std::max(ret_delay, tap.delay_s);
  const auto n_tx =
      modulator.waveform_length(air_bits.size()) +
      static_cast<std::size_t>(std::ceil((2.0 * max_delay + ret_delay) * fs)) + 64;
  const rvec tx =
      dsp::make_tone(cfg.carrier_hz, fs, n_tx,
                     common::pressure_from_spl(sc.reader.source_level_db) *
                         std::sqrt(2.0),
                     0.0);

  channel::WaveformChannelConfig fwd_cfg;
  fwd_cfg.fs_hz = fs;
  fwd_cfg.taps = fwd_taps;
  fwd_cfg.add_noise = false;
  fwd_cfg.sound_speed_mps = c;
  fwd_cfg.fading_sigma_db = sc.env.fading_sigma_db / 2.0;
  fwd_cfg.surface_wave_amplitude_m = sc.env.surface_wave_amplitude_m;
  fwd_cfg.surface_wave_period_s = sc.env.surface_wave_period_s;
  rvec incident;
  channel::WaveformChannel(fwd_cfg, rng).propagate_clean(tx, incident);

  const auto node_start = static_cast<std::size_t>(std::ceil(fwd_direct * fs));
  const bitvec states = modulator.switch_waveform(air_bits);
  const bitvec mask = modulator.active_mask(air_bits.size());
  const bool polarity = sc.node.array.scheme == vanatta::ModulationScheme::kPolarity;
  rvec reflected(incident.size());
  for (std::size_t n = 0; n < incident.size(); ++n) {
    double coef = static_amp;
    const std::size_t k = n - node_start;
    if (n >= node_start && k < states.size() && mask[k])
      coef += mod_amp * (polarity ? (states[k] ? 1.0 : -1.0) : (states[k] ? 2.0 : 0.0));
    reflected[n] = incident[n] * coef;
  }

  channel::WaveformChannelConfig ret_cfg = fwd_cfg;
  ret_cfg.taps = ret_taps;
  ret_cfg.fault = injector ? &*injector : nullptr;
  rvec rx;
  channel::WaveformChannel(ret_cfg, rng).propagate(reflected, rx);
  channel::WaveformChannelConfig blast_cfg = fwd_cfg;
  blast_cfg.taps = sim::blast_taps(sc);
  blast_cfg.fading_sigma_db = 0.0;
  blast_cfg.fault = nullptr;
  rvec blast;
  channel::WaveformChannel(blast_cfg, rng).propagate_clean(tx, blast);
  if (blast.size() > rx.size()) rx.resize(blast.size(), 0.0);
  for (std::size_t n = 0; n < blast.size(); ++n) rx[n] += blast[n];
  const auto head = static_cast<std::size_t>(std::ceil(sep / c * fs)) + 256;
  const std::size_t tail_end = std::min(rx.size(), n_tx);
  if (head < tail_end) rx = rvec(rx.begin() + static_cast<std::ptrdiff_t>(head),
                                 rx.begin() + static_cast<std::ptrdiff_t>(tail_end));

  const std::size_t coded = codec.coded_size(payload.size());
  phy::DemodResult demod;
  if (noise_at == NoiseAt::kPassband) {
    rvec noise;
    channel::synthesize_ambient_noise(rx.size(), common::SampleRateHz{fs}, sc.env.noise,
                                      rng, noise);
    for (std::size_t n = 0; n < rx.size(); ++n) rx[n] += noise[n];
    demod = demodulator.demodulate(rx, coded);
  } else {
    cvec bb;
    demodulator.front_end(rx, bb);
    channel::add_baseband_noise(common::SampleRateHz{fs}, common::Hz{cfg.carrier_hz},
                                demodulator.lowpass_taps(), cfg.decimation(),
                                sc.env.noise, rng, bb);
    demod = demodulator.demodulate_baseband(bb, coded);
    if (demod_out) *demod_out = demod;
    if (post_sic) *post_sic = bb;  // the canceller ran in place
  }
  RefOutcome out;
  out.sync_found = demod.sync_found;
  out.snr_db = demod.snr_db;
  out.bit_errors = payload.size();
  if (demod.sync_found && demod.bits.size() == coded) {
    std::size_t corrected = 0;
    const bitvec decoded = codec.decode(demod.bits, payload.size(), corrected);
    out.bit_errors = phy::hamming_distance(decoded, payload);
  }
  out.frame_ok = out.sync_found && out.bit_errors == 0;
  return out;
}

/// Wilson score 95 % interval of k successes in n.
std::pair<double, double> wilson95(std::size_t k, std::size_t n) {
  const double z = 1.96, nn = static_cast<double>(n), p = static_cast<double>(k) / nn;
  const double center = (p + z * z / (2.0 * nn)) / (1.0 + z * z / nn);
  const double half = common::wilson_half_width(k, n, z);
  return {center - half, center + half};
}

TEST(WaveformE2E, BasebandNoiseMatchesPassbandReference) {
  // The four wave_campaign jobs (river 100/300 m, ocean 100 m, river 200 m
  // FEC), fig_ber_vs_range's waveform check ranges (river 100/200/300 m, no
  // fading) and two points on its waterfall (400 and 500 m, where frames
  // fail often), 64-bit payloads, fixed seeds. frames_ok must fall in the
  // reference's Wilson 95 % interval and mean SNR within 0.5 dB of it.
  struct Job {
    std::string name;
    sim::Scenario scenario;
  };
  std::vector<Job> jobs;
  for (const double r : {100.0, 300.0}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.range_m = r;
    jobs.push_back({"river " + std::to_string(static_cast<int>(r)) + " m", s});
  }
  sim::Scenario ocean = sim::vab_ocean_scenario();
  ocean.range_m = 100.0;
  jobs.push_back({"ocean 100 m", ocean});
  sim::Scenario fec = sim::vab_river_scenario();
  fec.range_m = 200.0;
  fec.fec.enable = true;
  jobs.push_back({"river 200 m FEC", fec});
  for (const double r : {100.0, 200.0, 300.0, 400.0, 500.0}) {
    sim::Scenario s = sim::vab_river_scenario();
    s.range_m = r;
    s.env.fading_sigma_db = 0.0;
    jobs.push_back({"E1 river " + std::to_string(static_cast<int>(r)) + " m unfaded", s});
  }

  constexpr std::size_t kTrials = 48;
  constexpr std::size_t kBits = 64;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const common::Rng job_rng = common::Rng(26).child(j);
    std::size_t ok_base = 0, ok_pass = 0, sync_base = 0, sync_pass = 0;
    double snr_base = 0.0, snr_pass = 0.0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      const sim::WaveformTrialOutcome b = sim::run_waveform_trial(
          sim::WaveformSetup(jobs[j].scenario), kBits, job_rng, t);
      const RefOutcome p =
          reference_trial(jobs[j].scenario, kBits, job_rng, t, NoiseAt::kPassband);
      ok_base += b.frame_ok ? 1 : 0;
      ok_pass += p.frame_ok ? 1 : 0;
      if (b.sync_found) {
        ++sync_base;
        snr_base += b.snr_db;
      }
      if (p.sync_found) {
        ++sync_pass;
        snr_pass += p.snr_db;
      }
    }
    const auto [lo, hi] = wilson95(ok_pass, kTrials);
    const double rate_base = static_cast<double>(ok_base) / kTrials;
    const std::string what =
        jobs[j].name + ": " + std::to_string(ok_base) + " vs " + std::to_string(ok_pass);
    EXPECT_GE(rate_base, lo) << what;
    EXPECT_LE(rate_base, hi + 1e-12) << what;
    ASSERT_GT(sync_base, 0u) << jobs[j].name;
    ASSERT_GT(sync_pass, 0u) << jobs[j].name;
    EXPECT_NEAR(snr_base / static_cast<double>(sync_base),
                snr_pass / static_cast<double>(sync_pass), 0.5)
        << jobs[j].name;
  }
}

struct EnvelopeJob {
  std::string name;
  sim::Scenario scenario;
  std::size_t bits;
};

/// Sixteen jobs over the scenarios, codes, bitrates and faults the waveform
/// trial runs: the four wave_campaign jobs, fig_ber_vs_range's check ranges,
/// far ocean, Miller-2, PAB, SNR dips, a 96-bit frame and 2000 bps.
std::vector<EnvelopeJob> envelope_jobs() {
  std::vector<EnvelopeJob> jobs;
  const auto river = [](double r) {
    sim::Scenario s = sim::vab_river_scenario();
    s.range_m = r;
    return s;
  };
  // The four wave_campaign jobs.
  jobs.push_back({"river 100 m", river(100.0), 64});
  jobs.push_back({"river 300 m", river(300.0), 64});
  sim::Scenario ocean = sim::vab_ocean_scenario();
  ocean.range_m = 100.0;
  jobs.push_back({"ocean 100 m", ocean, 64});
  sim::Scenario fec = river(200.0);
  fec.fec.enable = true;
  jobs.push_back({"river 200 m FEC", fec, 64});
  // fig_ber_vs_range's waveform check ranges (no fading).
  for (const double r : {100.0, 200.0, 300.0}) {
    sim::Scenario s = river(r);
    s.env.fading_sigma_db = 0.0;
    const std::string name =
        "E1 river " + std::to_string(static_cast<int>(r)) + " m unfaded";
    jobs.push_back({name, s, 64});
  }
  sim::Scenario ocean_far = sim::vab_ocean_scenario();
  ocean_far.range_m = 250.0;
  jobs.push_back({"ocean 250 m", ocean_far, 64});
  sim::Scenario miller = river(150.0);
  miller.phy.uplink_code = phy::UplinkCode::kMiller2;
  jobs.push_back({"river 150 m Miller-2", miller, 64});
  for (const double r : {8.0, 30.0}) {
    sim::Scenario pab = sim::pab_river_scenario();
    pab.range_m = r;
    jobs.push_back({"PAB on-off " + std::to_string(static_cast<int>(r)) + " m", pab, 32});
  }
  sim::Scenario hostile = sim::hostile_river_scenario();
  hostile.range_m = 150.0;
  hostile.fault.snr_dip_prob = 0.5;  // dips in about half the trials
  jobs.push_back({"hostile river 150 m", hostile, 64});
  jobs.push_back({"river 250 m 96-bit", river(250.0), 96});
  sim::Scenario fast = river(100.0);
  fast.phy.bitrate_bps = 2000.0;
  jobs.push_back({"river 100 m 2000 bps", fast, 96});
  return jobs;
}

TEST(WaveformE2E, EnvelopeTrialMatchesPassbandReference) {
  // The simulator carries each trial as a piecewise-constant envelope; the
  // reference runs the same trial on passband samples with the noise drawn
  // at baseband. Every step of the envelope path is exact up to rounding, so
  // every trial must decode identically and give the same SNR to 1e-6 dB.
  const std::vector<EnvelopeJob> jobs = envelope_jobs();

  constexpr std::size_t kTrials = 12;
  std::size_t synced = 0, failed = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const common::Rng job_rng = common::Rng(28).child(j);
    for (std::size_t t = 0; t < kTrials; ++t) {
      const sim::WaveformTrialOutcome e = sim::run_waveform_trial(
          sim::WaveformSetup(jobs[j].scenario), jobs[j].bits, job_rng, t);
      const RefOutcome p =
          reference_trial(jobs[j].scenario, jobs[j].bits, job_rng, t, NoiseAt::kBaseband);
      const std::string what = jobs[j].name + ", trial " + std::to_string(t);
      ASSERT_EQ(e.sync_found, p.sync_found) << what;
      EXPECT_EQ(e.bit_errors, p.bit_errors) << what;
      EXPECT_EQ(e.frame_ok, p.frame_ok) << what;
      if (p.sync_found) {
        EXPECT_NEAR(e.snr_db, p.snr_db, 1e-6) << what;
      }
      synced += p.sync_found ? 1 : 0;
      failed += p.frame_ok ? 0 : 1;
    }
  }
  // The mix must hold decoded frames and failed ones, or equal outcomes
  // would show little.
  EXPECT_GT(synced, jobs.size() * kTrials / 2);
  EXPECT_GT(failed, 0u);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Checks the step correlator's sync on a post-SIC capture against the FFT
/// overlap-save scan it replaced: the same decision and lag, the same raw
/// dot (so the same carrier phase) and the peak value within 1e-12, and the
/// same best lag and value with no threshold. Past
/// sync, demodulate_baseband reads only the capture, the lag and the phase,
/// so equal syncs give equal bits, bit errors, frame_ok and SNR.
/// Returns whether the old scan found a peak.
bool expect_sync_as_fft_scan(const phy::ReaderDemodulator& demod, const cvec& post_sic,
                             const phy::DemodResult& got, const std::string& what) {
  const auto old = dsp::fft_find_peak(post_sic, dsp::samples_of(demod.sync_reference()),
                                      demod.config().sync_threshold);
  EXPECT_EQ(got.sync_found, old.has_value()) << what;
  if (got.sync_found && old) {
    EXPECT_EQ(got.sync_index_bb, old->index) << what;
    EXPECT_TRUE(same_bits(got.carrier_phase_rad, std::arg(old->raw))) << what;
    EXPECT_NEAR(got.corr_peak, old->value, 1e-12) << what;
  }
  // Below the threshold too (a missed sync): the same best lag and value.
  const auto best = dsp::find_peak(post_sic, demod.sync_reference(), 0.0);
  const auto old_best =
      dsp::fft_find_peak(post_sic, dsp::samples_of(demod.sync_reference()), 0.0);
  EXPECT_TRUE(best && old_best) << what;
  if (best && old_best) {
    EXPECT_EQ(best->index, old_best->index) << what;
    EXPECT_NEAR(best->value, old_best->value, 1e-12) << what;
  }
  return old.has_value();
}

TEST(WaveformE2E, StepSyncMatchesFftSyncReference) {
  // EnvelopeTrialMatchesPassbandReference's sixteen jobs, twelve trials each.
  const std::vector<EnvelopeJob> jobs = envelope_jobs();
  constexpr std::size_t kTrials = 12;
  std::size_t synced = 0, missed = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const common::Rng job_rng = common::Rng(28).child(j);
    const phy::ReaderDemodulator demod(jobs[j].scenario.phy);
    for (std::size_t t = 0; t < kTrials; ++t) {
      phy::DemodResult got;
      cvec post_sic;
      reference_trial(jobs[j].scenario, jobs[j].bits, job_rng, t, NoiseAt::kBaseband,
                      &got, &post_sic);
      const bool found = expect_sync_as_fft_scan(
          demod, post_sic, got, jobs[j].name + ", trial " + std::to_string(t));
      (found ? synced : missed) += 1;
    }
  }
  EXPECT_GT(synced, jobs.size() * kTrials / 2);
  EXPECT_GT(missed, 0u);
}

TEST(WaveformE2E, StepSyncMatchesFftSyncOnBlastCaptures) {
  // fig_sic's (E8) captures, built as it builds them: the blast-to-signal
  // sweep with the canceller on, and the receive-chain ablation at 80 dB,
  // whose notch-off rows leave the blast in the baseband as a large DC
  // offset.
  const auto capture = [](const phy::PhyConfig& cfg, const bitvec& payload,
                          double mod_amp, common::Rng& rng) {
    const phy::BackscatterModulator mod(cfg);
    const bitvec states = mod.switch_waveform(payload);
    const bitvec mask = mod.active_mask(payload.size());
    const std::size_t n = states.size() + 1024;
    rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, n);
    for (std::size_t i = 0; i < n; ++i) {
      double coef = 1.0;
      if (i < states.size() && mask[i]) coef += mod_amp * (states[i] ? 1.0 : -1.0);
      x[i] *= coef;
      x[i] += mod_amp * 0.05 * rng.gaussian();
    }
    return x;
  };
  const common::Rng root(8);
  const auto check = [&](const phy::PhyConfig& cfg, common::Rng local, double mod_amp,
                         const std::string& what) {
    const bitvec payload = local.random_bits(64);
    const rvec x = capture(cfg, payload, mod_amp, local);
    const phy::ReaderDemodulator demod(cfg);
    const phy::DemodResult got = demod.demodulate(x, payload.size());
    cvec post_sic;
    demod.to_baseband(x, post_sic);
    return expect_sync_as_fft_scan(demod, post_sic, got, what);
  };
  std::size_t synced = 0;
  for (const double bsr_db : {40.0, 60.0, 80.0, 90.0}) {
    phy::PhyConfig cfg;
    cfg.fs_hz = 96000.0;
    const bool found = check(cfg, root.child(static_cast<std::uint64_t>(bsr_db)),
                             std::pow(10.0, -bsr_db / 20.0),
                             "bsr " + std::to_string(bsr_db));
    synced += found ? 1 : 0;
  }
  for (const bool notch : {true, false}) {
    for (const bool eq : {true, false}) {
      phy::PhyConfig cfg;
      cfg.fs_hz = 96000.0;
      cfg.sic.enable_dc_notch = notch;
      cfg.enable_equalizer = eq;
      const auto child = static_cast<std::uint64_t>(notch * 2 + eq + 10);
      const std::string what =
          std::string("notch ") + (notch ? "on" : "off") + ", eq " + (eq ? "on" : "off");
      synced += check(cfg, root.child(child), 1e-4, what) ? 1 : 0;
    }
  }
  EXPECT_GT(synced, 0u);
}

TEST(WaveformE2E, MovingTapHoldMatchesPassbandReference) {
  // Surface-wave taps move their delay every passband sample; the envelope
  // legs hold it for one baseband sample at a time. On EXT-2's conditions
  // (ocean 150 m, 0.1 and 0.3 m swell, 3 and 10 m/s wind) frames_ok must
  // fall in the passband reference's Wilson 95 % interval and mean SNR
  // within 0.5 dB of it.
  constexpr std::size_t kTrials = 24;
  for (const double wave : {0.1, 0.3}) {
    for (const double wind : {3.0, 10.0}) {
      sim::Scenario s = sim::vab_ocean_scenario();
      s.range_m = 150.0;
      s.env.fading_sigma_db = 0.0;
      s.env.noise.wind_speed_mps = wind;
      s.env.multipath.surface_loss_db = 2.0 + wave * 8.0;
      s.env.surface_wave_amplitude_m = wave;
      s.env.surface_wave_period_s = 5.0;
      const common::Rng job_rng =
          common::Rng(22).child(static_cast<std::uint64_t>(wave * 100 + wind));
      std::size_t ok_env = 0, ok_ref = 0, sync_env = 0, sync_ref = 0;
      double snr_env = 0.0, snr_ref = 0.0;
      for (std::size_t t = 0; t < kTrials; ++t) {
        const sim::WaveformTrialOutcome e =
            sim::run_waveform_trial(sim::WaveformSetup(s), 64, job_rng, t);
        const RefOutcome p = reference_trial(s, 64, job_rng, t, NoiseAt::kBaseband);
        ok_env += e.frame_ok ? 1 : 0;
        ok_ref += p.frame_ok ? 1 : 0;
        if (e.sync_found) {
          ++sync_env;
          snr_env += e.snr_db;
        }
        if (p.sync_found) {
          ++sync_ref;
          snr_ref += p.snr_db;
        }
      }
      const std::string what = "wave " + std::to_string(wave) + " m, wind " +
                               std::to_string(wind) + ": " + std::to_string(ok_env) +
                               " vs " + std::to_string(ok_ref);
      const auto [lo, hi] = wilson95(ok_ref, kTrials);
      const double rate = static_cast<double>(ok_env) / kTrials;
      EXPECT_GE(rate, lo) << what;
      EXPECT_LE(rate, hi + 1e-12) << what;
      ASSERT_GT(sync_env, 0u) << what;
      ASSERT_GT(sync_ref, 0u) << what;
      EXPECT_NEAR(snr_env / static_cast<double>(sync_env),
                  snr_ref / static_cast<double>(sync_ref), 0.5)
          << what;
    }
  }
}

}  // namespace
}  // namespace vab
