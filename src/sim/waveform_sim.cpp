#include "sim/waveform_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/step_signal.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"

namespace vab::sim {

WaveformSetup::WaveformSetup(Scenario scenario) : scenario_(std::move(scenario)) {
  const vanatta::VanAttaArray array(scenario_.node.array);
  const double fc = scenario_.phy.carrier_hz;
  const double theta = scenario_.node.orientation_rad;
  const cplx r1 = array.bistatic_response(theta, theta, fc, 1);
  const cplx r0 = array.bistatic_response(theta, theta, fc, 0);
  const double ts0_lin = std::pow(10.0, kElementTargetStrengthDb / 20.0);
  const double mod_amp_lin = ts0_lin * std::abs(r1 - r0) / 2.0;
  chain_ = std::make_shared<const Chain>(
      Chain{phy::BackscatterModulator(scenario_.phy),
            phy::ReaderDemodulator(scenario_.phy), mod_amp_lin,
            scenario_.node.static_reflection_rel * mod_amp_lin});
  // Tap gains follow the scenario's spreading law so the waveform simulator
  // and the analytic link budget agree on energetics.
  fwd_taps_ = forward_taps(scenario_);
  ret_taps_ = return_taps(scenario_);
  blast_taps_ = blast_taps(scenario_);
}

WaveformSetup::WaveformSetup(Scenario scenario, std::shared_ptr<const Chain> chain)
    : scenario_(std::move(scenario)),
      chain_(std::move(chain)),
      fwd_taps_(forward_taps(scenario_)),
      ret_taps_(return_taps(scenario_)),
      blast_taps_(blast_taps(scenario_)) {}

WaveformSetup WaveformSetup::at_range(common::Meters range) const {
  Scenario s = scenario_;
  s.range_m = range.raw();
  return WaveformSetup(std::move(s), chain_);
}

void WaveformSetup::reflection_gains(const bitvec& payload, std::size_t start_offset,
                                     std::vector<std::size_t>& starts,
                                     rvec& gains) const {
  std::vector<phy::SwitchRun> runs;
  chain_->modulator.switch_runs(payload, runs);
  const bool polarity =
      scenario_.node.array.scheme == vanatta::ModulationScheme::kPolarity;
  const double static_amp = chain_->static_amp_lin;
  starts.assign(1, 0);
  gains.assign(1, static_amp);  // idle: absorptive
  const auto set = [&](std::size_t n, double g) {
    if (starts.back() == n) {
      gains.back() = g;
    } else if (g != gains.back()) {
      starts.push_back(n);
      gains.push_back(g);
    }
  };
  for (const phy::SwitchRun& run : runs) {
    // Per-state signed levels such that the differential amplitude is
    // mod_amp_lin: polarity toggles +/-1, on-off toggles 0/2 around mean 1.
    double g = static_amp;
    if (run.active) {
      const double level = polarity ? (run.state ? 1.0 : -1.0) : (run.state ? 2.0 : 0.0);
      g += chain_->mod_amp_lin * level;
    }
    set(start_offset + run.start, g);
  }
  // The frame ends on idle chips, so the last gain holds past the frame.
}

WaveformSimulator::WaveformSimulator(Scenario scenario, common::Rng& rng)
    : owned_(std::make_unique<const WaveformSetup>(std::move(scenario))),
      setup_(owned_.get()),
      rng_(&rng) {
  if (!setup_->scenario().fault.empty()) fault_.emplace(setup_->scenario().fault);
}

WaveformSimulator::WaveformSimulator(const WaveformSetup& setup, common::Rng& rng)
    : setup_(&setup), rng_(&rng) {
  if (!setup.scenario().fault.empty()) fault_.emplace(setup.scenario().fault);
}

WaveformTrialResult WaveformSimulator::run_trial(const bitvec& payload) {
  VAB_STAGE("wave.trial");
  const Scenario& scenario = setup_->scenario();
  const auto& phy = scenario.phy;
  const double fs = phy.fs_hz;
  const double c = scenario.env.sound_speed();
  const bitvec air_bits = [&] {
    VAB_STAGE("wave.fec_encode");
    return phy::FrameCodec(scenario.fec).encode(payload);
  }();

  const auto& fwd_taps = setup_->forward();
  const auto& ret_taps = setup_->ret();
  const double sep = std::max(scenario.reader.tx_rx_separation_m, 0.1);

  // Transmit long enough to cover the node frame plus round-trip delays.
  const std::size_t frame_len = setup_->modulator().waveform_length(air_bits.size());
  double max_delay = sep / c;
  for (const auto& t : fwd_taps) max_delay = std::max(max_delay, t.delay_s);
  double ret_delay = 0.0;
  for (const auto& t : ret_taps) ret_delay = std::max(ret_delay, t.delay_s);
  const auto n_tx =
      frame_len +
      static_cast<std::size_t>(std::ceil((2.0 * max_delay + ret_delay) * fs)) + 64;

  const double spl = scenario.reader.source_level_db;
  const double amp = common::pressure_from_spl(spl) * std::sqrt(2.0);  // peak from rms
  // The projector's tone: one run of its amplitude at the carrier.
  dsp::StepSignal tx;
  tx.reset(common::kTwoPi * phy.carrier_hz / fs, n_tx);
  tx.starts.push_back(0);
  tx.values.push_back(cplx{amp, 0.0});
  // Surface-wave taps move their delay every sample; the envelope legs hold
  // it for one baseband sample's worth of passband samples.
  const std::size_t moving_tap_hold = phy.decimation();

  // Forward propagation (clean: the node is an analog reflector).
  channel::WaveformChannelConfig fwd_cfg;
  fwd_cfg.fs_hz = fs;
  fwd_cfg.taps = fwd_taps;
  fwd_cfg.sound_speed_mps = c;
  fwd_cfg.fading_sigma_db = scenario.env.fading_sigma_db / 2.0;  // per leg
  fwd_cfg.surface_wave_amplitude_m = scenario.env.surface_wave_amplitude_m;
  fwd_cfg.surface_wave_period_s = scenario.env.surface_wave_period_s;
  channel::WaveformChannel fwd(fwd_cfg, *rng_);
  dsp::StepSignal incident;
  {
    VAB_STAGE("wave.channel.forward");
    fwd.propagate_envelope(tx, moving_tap_hold, incident);
  }

  // Node reflection: the node starts its frame once the carrier reaches it
  // (carrier-detect trigger), i.e. after the direct forward delay.
  double fwd_direct_delay = fwd_taps.front().delay_s;
  for (const auto& t : fwd_taps) fwd_direct_delay = std::min(fwd_direct_delay, t.delay_s);
  const auto node_start = static_cast<std::size_t>(std::ceil(fwd_direct_delay * fs));
  dsp::StepSignal reflected;
  {
    VAB_STAGE("wave.reflect");
    std::vector<std::size_t> starts;
    rvec gains;
    setup_->reflection_gains(air_bits, node_start, starts, gains);
    dsp::modulate(incident, starts, gains, reflected);
  }

  // Return propagation. The fault hook (SNR dips) bites on this leg only:
  // shadowing the weak backscatter, not the projector blast.
  channel::WaveformChannelConfig ret_cfg = fwd_cfg;
  ret_cfg.taps = ret_taps;
  ret_cfg.fault = fault_ ? &*fault_ : nullptr;
  channel::WaveformChannel ret(ret_cfg, *rng_);
  dsp::StepSignal ret_rx;
  {
    VAB_STAGE("wave.channel.return");
    ret.propagate_envelope(reflected, moving_tap_hold, ret_rx);
  }

  // Direct projector blast.
  channel::WaveformChannelConfig blast_cfg = fwd_cfg;
  blast_cfg.taps = setup_->blast();
  blast_cfg.fading_sigma_db = 0.0;
  channel::WaveformChannel blast(blast_cfg, *rng_);
  dsp::StepSignal blast_rx;
  {
    VAB_STAGE("wave.channel.blast");
    blast.propagate_envelope(tx, moving_tap_hold, blast_rx);
  }
  dsp::StepSignal rx;
  dsp::add(ret_rx, blast_rx, rx);

  // The reader captures only while the projector output is steady: starting
  // the capture on the blast turn-on (or ending it on turn-off) would slam a
  // ~90 dB step into the AC-coupled receive chain and ring over the frame.
  const auto head = static_cast<std::size_t>(std::ceil(sep / c * fs)) + 256;
  const std::size_t tail_end = std::min(rx.length, n_tx);
  dsp::StepSignal capture;
  if (head < tail_end) {
    dsp::window(rx, head, tail_end, capture);
  } else {
    capture = std::move(rx);
  }

  // Receiver front end, then the ambient noise at the hydrophone. The path
  // from the noise adder to the front-end output is linear, so the noise is
  // drawn as the front end would pass it: at the baseband rate, shaped by the
  // anti-alias filter.
  auto bb_l = dsp::Workspace::local().take_c(0);
  cvec& bb = *bb_l;
  const phy::ReaderDemodulator& demodulator = setup_->demodulator();
  demodulator.front_end(capture, bb);
  {
    VAB_STAGE("wave.noise");
    channel::add_baseband_noise(common::SampleRateHz{fs}, common::Hz{phy.carrier_hz},
                                demodulator.lowpass_taps(), phy.decimation(),
                                scenario.env.noise, *rng_, bb);
  }

  // Demodulate (and FEC-decode when the scenario runs coded).
  WaveformTrialResult res;
  res.tx_bits = payload;
  const phy::FrameCodec codec(scenario.fec);
  {
    VAB_STAGE("wave.demod");
    res.demod = demodulator.demodulate_baseband(bb, codec.coded_size(payload.size()));
  }
  if (res.demod.sync_found &&
      res.demod.bits.size() == codec.coded_size(payload.size())) {
    VAB_STAGE("wave.fec_decode");
    std::size_t corrected = 0;
    const bitvec decoded = codec.decode(res.demod.bits, payload.size(), corrected);
    res.fec_corrections = corrected;
    res.bit_errors = phy::hamming_distance(decoded, payload);
  } else {
    res.bit_errors = payload.size();
  }
  res.frame_ok = res.demod.sync_found && res.bit_errors == 0;
  res.incident_spl_at_node_db = common::spl_from_pressure(dsp::rms(incident));
  return res;
}

}  // namespace vab::sim
