// The waveform trial's envelope model: dsp::StepSignal, the channel legs on
// it, the node's chip runs and the run-summed front end, each checked
// against the passband sample arithmetic it stands for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/step_signal.hpp"
#include "fault/fault.hpp"
#include "phy/modem.hpp"
#include "sim/scenario.hpp"
#include "support/channel.hpp"
#include "support/dsp.hpp"
#include "support/phy.hpp"

namespace vab {
namespace {

constexpr double kFs = 96000.0;
constexpr double kFc = 18500.0;
const double kOmega = common::kTwoPi * kFc / kFs;

/// The passband samples a StepSignal stands for, on the carrier make_tone
/// and the downconverter use (the mixers' cached oscillator).
rvec expand(const dsp::StepSignal& x) {
  rvec out(x.length, 0.0);
  EXPECT_EQ(x.omega, kOmega);
  const cvec tone = *dsp::cached_tone(kFc, kFs, 0.0, x.length);
  for (std::size_t i = 0; i < x.runs(); ++i)
    for (std::size_t n = x.starts[i]; n < x.run_end(i); ++n)
      out[n] = (x.values[i] * tone[n]).real();
  return out;
}

/// Envelope value at sample n.
cplx value_at(const dsp::StepSignal& x, std::size_t n) {
  if (n >= x.length) return {};
  cplx v{};
  for (std::size_t i = 0; i < x.runs() && x.starts[i] <= n; ++i) v = x.values[i];
  return v;
}

/// Random runs: gaps of 1..max_gap samples, values of magnitude ~1, some
/// zero runs, the first start at `first`.
dsp::StepSignal random_steps(common::Rng& rng, std::size_t length, std::size_t first,
                             std::size_t max_gap) {
  dsp::StepSignal x;
  x.reset(kOmega, length);
  const auto gap = static_cast<std::int64_t>(max_gap);
  for (std::size_t n = first; n < length;
       n += static_cast<std::size_t>(rng.uniform_int(1, gap))) {
    x.starts.push_back(n);
    const bool zero = rng.coin(0.1);
    const double re = rng.gaussian(0.0, 1.0);
    x.values.push_back(zero ? cplx{} : cplx{re, rng.gaussian(0.0, 1.0)});
  }
  return x;
}

double max_abs_diff(const rvec& a, const rvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

double max_abs(const cvec& a) {
  double m = 0.0;
  for (const cplx& v : a) m = std::max(m, std::abs(v));
  return m;
}

double max_abs_diff(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(StepSignal, OperationsMatchTheirSamples) {
  common::Rng rng(1);
  const dsp::StepSignal a = random_steps(rng, 3000, 17, 40);
  const dsp::StepSignal b = random_steps(rng, 2500, 0, 90);
  const rvec xa = expand(a), xb = expand(b);

  dsp::StepSignal sum;
  dsp::add(a, b, sum);
  ASSERT_EQ(sum.length, 3000u);
  rvec want(3000, 0.0);
  for (std::size_t n = 0; n < 3000; ++n) want[n] = xa[n] + (n < xb.size() ? xb[n] : 0.0);
  EXPECT_LT(max_abs_diff(expand(sum), want), 1e-10);

  const std::size_t gs[] = {0, 5, 400, 401, 2999};
  const double gains[] = {0.5, -2.0, 3.0, 0.0, 7.0};
  dsp::StepSignal mod;
  dsp::modulate(a, gs, gains, mod);
  for (std::size_t n = 0; n < 3000; ++n) {
    const std::size_t g = static_cast<std::size_t>(
        std::upper_bound(std::begin(gs), std::end(gs), n) - std::begin(gs) - 1);
    want[n] = xa[n] * gains[g];
  }
  EXPECT_LT(max_abs_diff(expand(mod), want), 1e-10);

  // A window restarts the carrier phase at its first sample.
  dsp::StepSignal win;
  dsp::window(a, 333, 2800, win);
  ASSERT_EQ(win.length, 2467u);
  const rvec xw = expand(win);
  dsp::StepSignal wide;  // past the end: zero
  dsp::window(a, 2900, 3100, wide);
  const rvec xwide = expand(wide);
  EXPECT_LT(max_abs_diff(rvec(xwide.begin(), xwide.begin() + 100),
                         rvec(xa.begin() + 2900, xa.end())),
            1e-10);
  EXPECT_EQ(rvec(xwide.begin() + 100, xwide.end()), rvec(100, 0.0));
  EXPECT_LT(max_abs_diff(xw, rvec(xa.begin() + 333, xa.begin() + 2800)), 1e-10);

  double e = 0.0;
  for (double v : xa) e += v * v;
  EXPECT_NEAR(dsp::energy(a), e, 1e-9 * e);
  EXPECT_NEAR(dsp::rms(a), std::sqrt(e / 3000.0), 1e-9);
}

TEST(StepSignal, MergedCopiesSumShiftedScaledInputs) {
  common::Rng rng(2);
  const dsp::StepSignal x = random_steps(rng, 1500, 3, 25);
  std::vector<dsp::StepEvent> events;
  dsp::step_events(x, events);
  const cplx g0{0.3, -0.2}, g1{-1.1, 0.4};
  const dsp::EventStream streams[] = {{events, 7, g0}, {events, 8, g1}, {events, 0, 1.0}};
  dsp::StepSignal out;
  out.reset(kOmega, 1600);
  dsp::merge_events(streams, out);
  for (std::size_t i = 1; i < out.runs(); ++i)
    ASSERT_LT(out.starts[i - 1], out.starts[i]);
  for (std::size_t n = 0; n < out.length; n += 3) {
    const auto at = [&](std::size_t s) { return n >= s ? value_at(x, n - s) : cplx{}; };
    const cplx want = g0 * at(7) + g1 * at(8) + at(0);
    EXPECT_LT(std::abs(value_at(out, n) - want), 1e-12) << n;
  }
}

channel::WaveformChannelConfig leg_config(const std::vector<channel::PathTap>& taps) {
  channel::WaveformChannelConfig cfg;
  cfg.fs_hz = kFs;
  cfg.taps = taps;
  cfg.sound_speed_mps = 1480.0;
  cfg.fading_sigma_db = 1.5;
  return cfg;
}

/// Same runs, bit for bit.
bool identical(const dsp::StepSignal& a, const dsp::StepSignal& b) {
  return a.starts == b.starts && a.values.size() == b.values.size() &&
         (a.values.empty() || std::memcmp(a.values.data(), b.values.data(),
                                          a.values.size() * sizeof(cplx)) == 0);
}

bool identical(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

TEST(StepSignal, HeapMergeEqualsTheLinearScan) {
  // Random event streams against the linear-scan oracle: streams sharing a
  // shift (ties across streams at every event), empty streams, repeated
  // samples inside a stream, events at and past `length`, and moving-tap
  // streams (shift 0, gain 1, all stepping on one shared grid).
  common::Rng rng(31);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 24));
    std::vector<std::vector<dsp::StepEvent>> events(k);
    std::vector<dsp::EventStream> streams;
    const bool moving = trial % 4 == 3;
    std::size_t last = 0;
    for (std::size_t s = 0; s < k; ++s) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
      std::size_t pos = static_cast<std::size_t>(rng.uniform_int(0, 20));
      for (std::size_t e = 0; e < n; ++e) {
        events[s].push_back({pos, cplx{rng.gaussian(), rng.gaussian()}});
        if (moving) {
          pos += 16;  // the shared hold grid
        } else if (!rng.coin(0.1)) {
          pos += static_cast<std::size_t>(rng.uniform_int(1, 6));
        }
      }
      if (moving) {
        for (auto& ev : events[s]) ev.pos -= ev.pos % 16;
        streams.push_back({events[s], 0, cplx{1.0, 0.0}});
      } else {
        const auto shift = static_cast<std::size_t>(rng.uniform_int(0, 3)) * 5;
        streams.push_back({events[s], shift, cplx{rng.gaussian(), rng.gaussian()}});
      }
      if (!events[s].empty()) last = std::max(last, events[s].back().pos + 20);
    }
    dsp::StepSignal want, got;
    // At, before and past the last event.
    const std::size_t length =
        trial % 3 == 0 ? last : static_cast<std::size_t>(rng.uniform_int(0, 250));
    want.reset(kOmega, length);
    got.reset(kOmega, length);
    dsp::merge_events_linear(streams, want);
    dsp::merge_events(streams, got);
    EXPECT_TRUE(identical(got, want)) << "trial " << trial << ", " << k << " streams";
  }
}

TEST(EnvelopeChannel, StaticTapsMatchTheGather) {
  // River 300 m forward and return taps with fades: the envelope leg is the
  // passband gather's envelope, to rounding.
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 300.0;
  common::Rng data(3);
  const std::vector<channel::PathTap> legs[] = {sim::forward_taps(s), sim::return_taps(s),
                                                sim::blast_taps(s)};
  for (const auto& taps : legs) {
    const dsp::StepSignal tx = random_steps(data, 40000, 250, 120);
    const rvec x = expand(tx);
    common::Rng r1(4), r2(4);
    const channel::WaveformChannel env_leg(leg_config(taps), r1);
    const channel::WaveformChannel pass_leg(leg_config(taps), r2);
    dsp::StepSignal out;
    env_leg.propagate_envelope(tx, 12, out);
    rvec want;
    pass_leg.propagate_clean(x, want);
    ASSERT_EQ(out.length, want.size());
    double peak = 0.0;
    for (double v : want) peak = std::max(peak, std::abs(v));
    EXPECT_LT(max_abs_diff(expand(out), want), 1e-10 * peak);
  }
}

TEST(EnvelopeChannel, FaultDipMakesTheDrawsOfThePassbandHook) {
  // Same plan, same channel stream: the envelope leg draws the dip window
  // over the length the passband leg returns and attenuates the same samples.
  fault::FaultPlan plan;
  plan.snr_dip_prob = 0.7;
  plan.snr_dip_db = 9.0;
  sim::Scenario s = sim::vab_river_scenario();
  s.range_m = 120.0;
  common::Rng data(5);
  std::size_t dips = 0;
  for (std::size_t trial = 0; trial < 6; ++trial) {
    plan.seed = 100 + trial;
    fault::FaultInjector f_env(plan), f_pass(plan);
    auto cfg_env = leg_config(sim::return_taps(s));
    auto cfg_pass = cfg_env;
    cfg_env.fault = &f_env;
    cfg_pass.fault = &f_pass;
    common::Rng r1(6), r2(6), r3(6);
    const dsp::StepSignal tx = random_steps(data, 20000, 0, 300);
    dsp::StepSignal out;
    channel::WaveformChannel(cfg_env, r1).propagate_envelope(tx, 12, out);
    rvec want, clean;
    channel::WaveformChannel(cfg_pass, r2).propagate(expand(tx), want);
    channel::WaveformChannel(leg_config(cfg_env.taps), r3)
        .propagate_clean(expand(tx), clean);
    double peak = 0.0;
    for (double v : clean) peak = std::max(peak, std::abs(v));
    EXPECT_LT(max_abs_diff(expand(out), want), 1e-10 * peak);
    dips += want != clean ? 1 : 0;
  }
  // Some trials dipped and some did not, so both branches were compared.
  EXPECT_GT(dips, 0u);
  EXPECT_LT(dips, 6u);
}

TEST(EnvelopeChannel, MovingTapsFollowTheScatterWithinTheHold) {
  // Under surface waves the envelope leg holds each moving tap's delay for
  // 12 samples: the output stays within a few percent of the per-sample
  // scatter (a wrong phasor or shift would be off by order one).
  sim::Scenario s = sim::vab_ocean_scenario();
  s.range_m = 150.0;
  for (const double wave : {0.05, 0.3}) {
    auto cfg = leg_config(sim::forward_taps(s));
    cfg.surface_wave_amplitude_m = wave;
    cfg.surface_wave_period_s = 5.0;
    cfg.fading_sigma_db = 0.0;
    common::Rng r1(7), r2(7);
    dsp::StepSignal tx;
    tx.reset(kOmega, 30000);
    tx.starts = {0, 9000, 9400};
    tx.values = {cplx{1.0, 0.0}, cplx{-1.0, 0.5}, cplx{0.2, 0.0}};
    dsp::StepSignal out;
    channel::WaveformChannel(cfg, r1).propagate_envelope(tx, 12, out);
    rvec want;
    channel::WaveformChannel(cfg, r2).propagate_clean(expand(tx), want);
    double peak = 0.0;
    for (double v : want) peak = std::max(peak, std::abs(v));
    const double err = max_abs_diff(expand(out), want);
    EXPECT_LT(err, 0.05 * peak) << "wave " << wave;
    EXPECT_GT(err, 0.0) << "moving taps were not moved";
  }
}

TEST(EnvelopeChannel, RejectsPassbandNoise) {
  auto cfg = leg_config(channel::single_tap(1.0, 0.01));
  cfg.add_noise = true;
  common::Rng rng(8);
  const channel::WaveformChannel leg(cfg, rng);
  dsp::StepSignal tx, out;
  tx.reset(kOmega, 100);
  EXPECT_THROW(leg.propagate_envelope(tx, 12, out), std::invalid_argument);
}

/// ½ sum_k h[k] v(n - k) at the front end's output samples: the front end
/// without its image term.
cvec front_end_without_image(const phy::ReaderDemodulator& demod,
                             const dsp::StepSignal& capture) {
  const rvec& h = demod.lowpass_taps();
  const std::size_t m = demod.config().decimation();
  const std::size_t offset = demod.config().lowpass_taps + 8 * m;
  cvec env(capture.length);
  for (std::size_t i = 0; i < capture.runs(); ++i)
    for (std::size_t n = capture.starts[i]; n < capture.run_end(i); ++n)
      env[n] = capture.values[i];
  cvec out;
  for (std::size_t n = offset; n < capture.length; n += m) {
    cplx acc{};
    for (std::size_t k = 0; k < h.size() && k <= n; ++k) acc += h[k] * env[n - k];
    out.push_back(0.5 * acc);
  }
  return out;
}

TEST(EnvelopeFrontEnd, EqualsThePassbandFrontEnd) {
  // Random step envelopes through fractional-delay taps, plus a blast 80 dB
  // over them, at three decimations: the run-summed front end must equal
  // downconversion + decimating FIR of the samples to 1e-9 of the swing.
  common::Rng rng(9);
  for (const double bitrate : {200.0, 500.0, 2000.0}) {
    phy::PhyConfig cfg;
    cfg.fs_hz = kFs;
    cfg.carrier_hz = kFc;
    cfg.bitrate_bps = bitrate;
    const phy::ReaderDemodulator demod(cfg);
    for (std::size_t trial = 0; trial < 3; ++trial) {
      const dsp::StepSignal chips = random_steps(rng, 30000, 800, 2 * 96000 / (2 * 500));
      const std::vector<channel::PathTap> taps{
          {0.0101234, 0.8, 0, 0}, {0.0112371, -0.35, 1, 0}, {0.0129876, 0.2, 1, 1}};
      common::Rng ch(10 + trial);
      dsp::StepSignal ret;
      channel::WaveformChannel(leg_config(taps), ch).propagate_envelope(chips, 12, ret);
      dsp::StepSignal blast_tx;
      blast_tx.reset(kOmega, 30000);
      blast_tx.starts = {0};
      blast_tx.values = {cplx{1e4, 0.0}};
      dsp::StepSignal blast;
      channel::WaveformChannel(leg_config(channel::single_tap(0.9, 0.0004321)), ch)
          .propagate_envelope(blast_tx, 12, blast);
      dsp::StepSignal rx, capture, ret_capture;
      dsp::add(ret, blast, rx);
      dsp::window(rx, 300, 30000, capture);
      dsp::window(ret, 300, 30000, ret_capture);

      cvec got, want, swing_ref;
      demod.front_end(capture, got);
      demod.front_end(expand(capture), want);
      demod.front_end(expand(ret_capture), swing_ref);
      ASSERT_EQ(got.size(), want.size());
      const double swing = max_abs(swing_ref);
      ASSERT_GT(swing, 0.0);
      const std::string what =
          std::to_string(bitrate) + " bps, trial " + std::to_string(trial);
      EXPECT_LT(max_abs_diff(got, want), 1e-9 * swing) << what;
      // The image term carries the chip edges: without it the outputs miss
      // by far more than the tolerance.
      EXPECT_GT(max_abs_diff(front_end_without_image(demod, ret_capture), swing_ref),
                1e-3 * swing)
          << what;
    }
  }
}

TEST(EnvelopeFrontEnd, BitIdenticalToTheScatterReference) {
  // The output gather against the step scatter it replaced, at every ISA
  // the binary can run, over three decimations and captures short enough
  // to end inside the warm-up, inside the first window, and far past it.
  common::Rng rng(12);
  for (const double bitrate : {200.0, 500.0, 2000.0}) {
    phy::PhyConfig cfg;
    cfg.fs_hz = kFs;
    cfg.carrier_hz = kFc;
    cfg.bitrate_bps = bitrate;
    const phy::ReaderDemodulator demod(cfg);
    for (const std::size_t length : {200u, 400u, 1000u, 30000u}) {
      const dsp::StepSignal capture = random_steps(rng, length, 3, 90);
      cvec want;
      phy::front_end_scatter_reference(demod, capture, want);
      for (const auto isa : {dsp::simd::Isa::kScalar, dsp::simd::Isa::kAvx2}) {
        if (!dsp::simd::force_isa(isa)) continue;
        cvec got;
        demod.front_end(capture, got);
        EXPECT_TRUE(identical(got, want))
            << bitrate << " bps, length " << length << ", " << dsp::simd::isa_name(isa);
      }
      dsp::simd::reset_isa();
    }
  }
}

TEST(EnvelopeFrontEnd, RejectsAnotherCarrier) {
  phy::PhyConfig cfg;
  cfg.fs_hz = kFs;
  cfg.carrier_hz = kFc;
  const phy::ReaderDemodulator demod(cfg);
  dsp::StepSignal x;
  x.reset(common::kTwoPi * 20000.0 / kFs, 5000);
  cvec out;
  EXPECT_THROW(demod.front_end(x, out), std::invalid_argument);
}

TEST(SwitchRuns, ExpandToSwitchWaveformAndActiveMask) {
  // FM0, Miller-2 and Miller-4 at 500 bps, FM0 at 200/1000/2000 bps and at
  // 875 bps (1750 Hz chips: a fractional 54.86 samples per chip). At 585 and
  // 510 bps, chips 39 and 51 start one sample off ceil(c * spc): the
  // per-sample rule's rounding, which the runs must follow.
  struct Case {
    phy::UplinkCode code;
    double bitrate;
  };
  using phy::UplinkCode;
  const Case cases[] = {{UplinkCode::kFm0, 500.0},     {UplinkCode::kMiller2, 500.0},
                        {UplinkCode::kMiller4, 500.0}, {UplinkCode::kFm0, 200.0},
                        {UplinkCode::kFm0, 1000.0},    {UplinkCode::kFm0, 2000.0},
                        {UplinkCode::kFm0, 875.0},     {UplinkCode::kMiller2, 875.0},
                        {UplinkCode::kFm0, 585.0},     {UplinkCode::kFm0, 510.0}};
  common::Rng rng(11);
  for (const Case& c : cases) {
    phy::PhyConfig cfg;
    cfg.fs_hz = kFs;
    cfg.bitrate_bps = c.bitrate;
    cfg.uplink_code = c.code;
    const phy::BackscatterModulator mod(cfg);
    for (const std::size_t bits : {16u, 64u, 97u}) {
      const bitvec payload = rng.random_bits(bits);
      const bitvec states = mod.switch_waveform(payload);
      const bitvec mask = mod.active_mask(bits);
      std::vector<phy::SwitchRun> runs;
      mod.switch_runs(payload, runs);
      ASSERT_FALSE(runs.empty());
      ASSERT_EQ(runs.front().start, 0u);
      bitvec got_states(states.size()), got_mask(states.size());
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::size_t end = i + 1 < runs.size() ? runs[i + 1].start : states.size();
        ASSERT_LT(runs[i].start, end);
        for (std::size_t n = runs[i].start; n < end; ++n) {
          got_states[n] = runs[i].state;
          got_mask[n] = runs[i].active ? 1 : 0;
        }
      }
      const std::string what =
          std::to_string(c.bitrate) + " bps, " + std::to_string(bits) + " bits";
      EXPECT_EQ(got_states, states) << what;
      EXPECT_EQ(got_mask, mask) << what;
    }
  }
}

}  // namespace
}  // namespace vab
