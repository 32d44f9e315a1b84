#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/workspace.hpp"
#include "net/app.hpp"
#include "net/frame.hpp"
#include "net/inventory.hpp"
#include "obs/obs.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"
#include "phy/fm0.hpp"
#include "phy/modem.hpp"
#include "sim/fleet/medium.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/waveform_sim.hpp"
#include "vanatta/array.hpp"

namespace perfbench {

namespace {

using vab::bitvec;
using vab::cplx;
using vab::cvec;
using vab::rvec;
namespace channel = vab::channel;
namespace common = vab::common;
namespace dsp = vab::dsp;
namespace phy = vab::phy;
namespace sim = vab::sim;
namespace fleet = vab::sim::fleet;

struct ReplicaOutcome {
  std::size_t bit_errors = 0;
  bool sync_found = false;
  double snr_db = 0.0;
};

/// WaveformSimulator::run_trial rebuilt from the public channel/phy/dsp
/// calls, in the same order and with the same draws, with a span around
/// each layer call. The root span covers exactly what run_trial does; the
/// separate to_baseband call that isolates the baseband stage runs after it.
ReplicaOutcome replica_trial(const sim::Scenario& sc, const bitvec& payload,
                             common::Rng& rng, Tracer& tr, rvec* keep_passband) {
  if (!sc.fault.empty())
    throw std::invalid_argument("replica trial models fault-free scenarios only");
  const phy::PhyConfig& cfg = sc.phy;
  const phy::BackscatterModulator modulator(cfg);
  const phy::ReaderDemodulator demodulator(cfg);
  const vab::vanatta::VanAttaArray array(sc.node.array);
  const double theta = sc.node.orientation_rad;
  const cplx r1 = array.bistatic_response(theta, theta, cfg.carrier_hz, 1);
  const cplx r0 = array.bistatic_response(theta, theta, cfg.carrier_hz, 0);
  const double ts0_lin = std::pow(10.0, sim::kElementTargetStrengthDb / 20.0);
  const double mod_amp = ts0_lin * std::abs(r1 - r0) / 2.0;
  const double static_amp = sc.node.static_reflection_rel * mod_amp;

  ReplicaOutcome out;
  auto rx_l = dsp::Workspace::local().take_r(0);
  rvec& rx = *rx_l;
  {
    Tracer::Scope trial(tr, "sim.replica_trial");
    const double fs = cfg.fs_hz;
    const double c = sc.env.sound_speed();
    bitvec air_bits;
    {
      Tracer::Scope s(tr, "phy.fec_encode");
      air_bits = phy::FrameCodec(sc.fec).encode(payload);
    }
    const auto fwd_taps = sim::forward_taps(sc);
    const auto ret_taps = sim::return_taps(sc);
    const double sep = std::max(sc.reader.tx_rx_separation_m, 0.1);
    const auto blast_tap_set = sim::blast_taps(sc);

    const std::size_t frame_len = modulator.waveform_length(air_bits.size());
    double max_delay = sep / c;
    for (const auto& t : fwd_taps) max_delay = std::max(max_delay, t.delay_s);
    double ret_delay = 0.0;
    for (const auto& t : ret_taps) ret_delay = std::max(ret_delay, t.delay_s);
    const auto n_tx =
        frame_len +
        static_cast<std::size_t>(std::ceil((2.0 * max_delay + ret_delay) * fs)) + 64;
    const double amp =
        common::pressure_from_spl(sc.reader.source_level_db) * std::sqrt(2.0);
    auto tx_l = dsp::Workspace::local().take_r(0);
    rvec& tx = *tx_l;
    dsp::make_tone(cfg.carrier_hz, fs, n_tx, amp, 0.0, tx);

    channel::WaveformChannelConfig fwd_cfg;
    fwd_cfg.fs_hz = fs;
    fwd_cfg.taps = fwd_taps;
    fwd_cfg.add_noise = false;
    fwd_cfg.sound_speed_mps = c;
    fwd_cfg.fading_sigma_db = sc.env.fading_sigma_db / 2.0;
    fwd_cfg.surface_wave_amplitude_m = sc.env.surface_wave_amplitude_m;
    fwd_cfg.surface_wave_period_s = sc.env.surface_wave_period_s;
    auto incident_l = dsp::Workspace::local().take_r(0);
    rvec& incident = *incident_l;
    {
      Tracer::Scope s(tr, "channel.propagate");
      const channel::WaveformChannel fwd(fwd_cfg, rng);
      fwd.propagate_clean(tx, incident);
    }

    // Node reflection (the simulator's private node_reflection_sequence).
    double fwd_direct_delay = fwd_taps.front().delay_s;
    for (const auto& t : fwd_taps) fwd_direct_delay = std::min(fwd_direct_delay, t.delay_s);
    const auto node_start = static_cast<std::size_t>(std::ceil(fwd_direct_delay * fs));
    auto reflected_l = dsp::Workspace::local().take_r(incident.size());
    rvec& reflected = *reflected_l;
    {
      auto states_l = dsp::Workspace::local().take_b(0);
      auto mask_l = dsp::Workspace::local().take_b(0);
      bitvec& states = *states_l;
      bitvec& mask = *mask_l;
      modulator.switch_waveform(air_bits, states);
      modulator.active_mask(air_bits.size(), mask);
      const bool polarity =
          sc.node.array.scheme == vab::vanatta::ModulationScheme::kPolarity;
      auto coef_l = dsp::Workspace::local().take_r(0);
      rvec& coef = *coef_l;
      coef.assign(incident.size(), static_amp);
      for (std::size_t n = node_start; n < incident.size(); ++n) {
        const std::size_t k = n - node_start;
        if (k >= states.size() || !mask[k]) continue;
        const double level = polarity ? (states[k] ? 1.0 : -1.0) : (states[k] ? 2.0 : 0.0);
        coef[n] += mod_amp * level;
      }
      for (std::size_t n = 0; n < incident.size(); ++n) reflected[n] = incident[n] * coef[n];
    }

    channel::WaveformChannelConfig ret_cfg = fwd_cfg;
    ret_cfg.taps = ret_taps;
    {
      Tracer::Scope s(tr, "channel.propagate");
      const channel::WaveformChannel ret(ret_cfg, rng);
      ret.propagate(reflected, rx);
    }
    channel::WaveformChannelConfig blast_cfg = fwd_cfg;
    blast_cfg.taps = blast_tap_set;
    blast_cfg.fading_sigma_db = 0.0;
    auto blast_l = dsp::Workspace::local().take_r(0);
    rvec& blast_rx = *blast_l;
    {
      Tracer::Scope s(tr, "channel.propagate");
      const channel::WaveformChannel blast(blast_cfg, rng);
      blast.propagate_clean(tx, blast_rx);
    }
    if (blast_rx.size() > rx.size()) rx.resize(blast_rx.size(), 0.0);
    for (std::size_t n = 0; n < blast_rx.size(); ++n) rx[n] += blast_rx[n];

    const auto head = static_cast<std::size_t>(std::ceil(sep / c * fs)) + 256;
    const std::size_t tail_end = std::min(rx.size(), n_tx);
    if (head < tail_end) {
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(head));
      rx.resize(tail_end - head);
    }
    {
      auto noise_l = dsp::Workspace::local().take_r(0);
      rvec& noise = *noise_l;
      {
        Tracer::Scope s(tr, "channel.noise");
        channel::synthesize_ambient_noise(rx.size(), common::SampleRateHz{fs},
                                          sc.env.noise, rng, noise);
      }
      for (std::size_t n = 0; n < rx.size(); ++n) rx[n] += noise[n];
    }

    const phy::FrameCodec codec(sc.fec);
    phy::DemodResult demod;
    {
      Tracer::Scope s(tr, "phy.demodulate");
      demod = demodulator.demodulate(rx, codec.coded_size(payload.size()));
    }
    out.sync_found = demod.sync_found;
    out.snr_db = demod.snr_db;
    if (demod.sync_found && demod.bits.size() == codec.coded_size(payload.size())) {
      Tracer::Scope s(tr, "phy.fec_decode");
      std::size_t corrected = 0;
      const bitvec decoded = codec.decode(demod.bits, payload.size(), corrected);
      out.bit_errors = phy::hamming_distance(decoded, payload);
    } else {
      out.bit_errors = payload.size();
    }
  }
  {
    Tracer::Scope s(tr, "phy.baseband");
    auto bb_l = dsp::Workspace::local().take_c(0);
    demodulator.to_baseband(rx, *bb_l);
  }
  if (keep_passband) *keep_passband = rx;
  return out;
}

const vab::obs::StageProfile* find_stage(const vab::obs::ProfileSummary& p,
                                         const char* name) {
  for (const auto& s : p.stages)
    if (s.name == name) return &s;
  return nullptr;
}

double per_call_ms(const vab::obs::StageProfile* s, bool self) {
  if (!s || s->calls == 0) return 0.0;
  return static_cast<double>(self ? s->self_ns : s->total_ns) / 1e6 /
         static_cast<double>(s->calls);
}

/// Median seconds per call of `fn`, over `reps` timed calls.
template <typename Fn>
double median_call_s(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

/// The demodulator's sync reference (built in its constructor, private).
cvec sync_reference(const phy::PhyConfig& cfg) {
  rvec levels;
  for (std::size_t i = 0; i < phy::BackscatterModulator::kSettleChips; ++i)
    levels.push_back((i & 1u) ? 1.0 : -1.0);
  for (const double v : phy::fm0_preamble_levels()) levels.push_back(v);
  const double spc = cfg.samples_per_chip_bb();
  const auto len =
      static_cast<std::size_t>(std::floor(static_cast<double>(levels.size()) * spc));
  double mean_level = 0.0;
  for (const double v : levels) mean_level += v;
  mean_level /= static_cast<double>(levels.size());
  cvec ref(len);
  for (std::size_t i = 0; i < len; ++i) {
    const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
    ref[i] = cplx{levels[std::min(c, levels.size() - 1)] - mean_level, 0.0};
  }
  return ref;
}

}  // namespace

TrialProbe probe_trials(const std::vector<TrialCase>& cases, Tracer& tracer) {
  TrialProbe out;
  out.attempts = cases.size();
  if (cases.empty()) return out;

  // Real trials, with the in-program profiler recording their stages.
  vab::obs::clear_trace();
  std::vector<ReplicaOutcome> real(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    common::Rng rng = cases[i].rng;
    sim::WaveformSimulator simulator = [&] {
      Tracer::Scope s(tracer, "sim.simulator_setup");
      return sim::WaveformSimulator(cases[i].scenario, rng);
    }();
    const bitvec payload = rng.random_bits(cases[i].payload_bits);
    Tracer::Scope s(tracer, "sim.run_trial");
    const sim::WaveformTrialResult r = simulator.run_trial(payload);
    out.trial_ms.push_back(s.seconds() * 1e3);
    real[i] = ReplicaOutcome{r.bit_errors, r.demod.sync_found, r.demod.snr_db};
    out.synced += r.demod.sync_found ? 1 : 0;
    out.frames_ok += r.frame_ok ? 1 : 0;
  }
  const vab::obs::ProfileSummary prof = vab::obs::profile_from_trace();
  out.prof_dropped = prof.dropped;
  out.prof_noise_ms = per_call_ms(find_stage(prof, "wave.noise"), true);
  out.prof_baseband_ms = per_call_ms(find_stage(prof, "demod.baseband"), false);
  out.prof_demod_ms =
      per_call_ms(find_stage(prof, "wave.demod"), false) - out.prof_baseband_ms;

  // Replicas, with tracing off so only the real trials feed the profile.
  vab::obs::disable_trace();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    common::Rng rng = cases[i].rng;
    const bitvec payload = rng.random_bits(cases[i].payload_bits);
    DspInput keep{cases[i].scenario.phy, {}};
    const ReplicaOutcome r = replica_trial(cases[i].scenario, payload, rng, tracer,
                                           cases[i].capture_dsp ? &keep.passband : nullptr);
    if (cases[i].capture_dsp) out.dsp_inputs.push_back(std::move(keep));
    const ReplicaOutcome& want = real[i];
    if (r.bit_errors == want.bit_errors && r.sync_found == want.sync_found &&
        std::bit_cast<std::uint64_t>(r.snr_db) == std::bit_cast<std::uint64_t>(want.snr_db))
      ++out.replica_matches;
  }
  vab::obs::enable_trace("");

  const auto per_trial_ms = [&](const char* name) {
    return tracer.total_s(name) * 1e3 / static_cast<double>(cases.size());
  };
  out.simulator_setup_ms = per_trial_ms("sim.simulator_setup");
  out.trial_mean_ms = mean(out.trial_ms);
  out.propagate_ms = per_trial_ms("channel.propagate");
  out.noise_ms = per_trial_ms("channel.noise");
  out.demodulate_ms = per_trial_ms("phy.demodulate");
  out.baseband_ms = per_trial_ms("phy.baseband");
  out.fec_ms = per_trial_ms("phy.fec_encode") + per_trial_ms("phy.fec_decode");
  return out;
}

DspProbe probe_dsp(const std::vector<DspInput>& inputs, Tracer& tracer) {
  DspProbe out;
  if (inputs.empty()) return out;
  constexpr std::size_t kReps = 15;
  std::ostringstream sizes;
  std::vector<double> fft, fir, corr, down;
  for (const DspInput& in : inputs) {
    const phy::PhyConfig& cfg = in.phy;
    const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(in.passband.size(), 2));
    const std::size_t m = cfg.decimation();
    const std::size_t warmup = cfg.lowpass_taps + 8 * m;
    const rvec taps = dsp::design_lowpass(2.5 * cfg.chip_rate_hz(), cfg.fs_hz,
                                          cfg.lowpass_taps, dsp::WindowType::kKaiser, 12.0);
    const cvec ref = sync_reference(cfg);
    cvec mixed, bb;
    dsp::downconvert(in.passband, cfg.carrier_hz, cfg.fs_hz, 0.0, mixed);
    dsp::fir_filter_decimate(taps, mixed, m, warmup, bb);
    cvec buf(nfft);
    for (std::size_t i = 0; i < nfft; ++i)
      buf[i] = cplx{i < in.passband.size() ? in.passband[i] : 0.0, 0.0};
    const dsp::FftPlan& plan = dsp::fft_plan(nfft);
    sizes << (sizes.tellp() > 0 ? ", " : "") << "passband " << in.passband.size()
          << " fft " << nfft << " baseband " << bb.size() << " ref " << ref.size();

    Tracer::Scope s(tracer, "dsp.kernels");
    // Forward then inverse keeps the data bounded; report half the pair.
    fft.push_back(0.5 * median_call_s(kReps, [&] {
      plan.forward(buf.data());
      plan.inverse(buf.data());
    }));
    down.push_back(median_call_s(kReps, [&] {
      dsp::downconvert(in.passband, cfg.carrier_hz, cfg.fs_hz, 0.0, mixed);
    }));
    cvec dec;
    fir.push_back(median_call_s(kReps, [&] {
      dsp::fir_filter_decimate(taps, mixed, m, warmup, dec);
    }));
    corr.push_back(median_call_s(kReps, [&] { (void)dsp::find_peak(bb, ref, cfg.sync_threshold); }));
  }
  out.fft_us = mean(fft) * 1e6;
  out.fir_decimate_us = mean(fir) * 1e6;
  out.correlate_us = mean(corr) * 1e6;
  out.downconvert_us = mean(down) * 1e6;
  out.sizes = sizes.str();
  return out;
}

std::vector<double> layout_link_ranges(const fleet::FleetConfig& cfg,
                                       const fleet::FleetLayout& layout,
                                       std::size_t max_links) {
  std::vector<double> ranges;
  for (const fleet::Position& node : layout.nodes) {
    double best = std::numeric_limits<double>::infinity();
    for (const fleet::Position& reader : layout.readers)
      best = std::min(best, fleet::distance_m(reader, node));
    if (best <= cfg.max_link_range_m) ranges.push_back(std::max(best, 1.0));
    if (ranges.size() == max_links) break;
  }
  return ranges;
}

NetProbe probe_net(const fleet::FleetConfig& cfg, const std::vector<double>& ranges,
                   const common::Rng& rng, Tracer& tracer) {
  NetProbe out;
  if (ranges.empty()) return out;
  vab::net::Frame report;
  report.type = vab::net::FrameType::kSensorReport;
  report.payload.resize(vab::net::kReadingBytes);
  const vab::bytes wire0 = vab::net::serialize(report);
  const std::size_t wire_bits = wire0.size() * 8;
  std::vector<fleet::FleetLinkTransport::LinkInfo> links;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    fleet::FleetLinkTransport::LinkInfo l;
    l.node_id = static_cast<std::uint32_t>(i);
    l.range_m = ranges[i];
    links.push_back(l);
  }

  {
    fleet::FidelityPolicy policy = cfg.fidelity;
    policy.mode = fleet::FidelityMode::kBudgetOnly;
    fleet::FleetLinkTransport tp(cfg.scenario, policy,
                                 common::Db{cfg.contention_penalty_db}, wire_bits);
    tp.begin_window(links, rng.child(1));
    common::Rng poll_rng = rng.child(2);
    vab::bytes wire = wire0;
    constexpr std::size_t kPolls = 50000;
    Tracer::Scope s(tracer, "net.poll_budget");
    for (std::size_t i = 0; i < kPolls; ++i)
      (void)tp.uplink_delivered(static_cast<std::uint8_t>(i % links.size()), wire, poll_rng);
    out.poll_budget_us = s.seconds() * 1e6 / static_cast<double>(kPolls);
  }
  {
    fleet::FidelityPolicy policy = cfg.fidelity;
    policy.mode = fleet::FidelityMode::kWaveformOnly;
    policy.max_waveform_polls = std::numeric_limits<std::size_t>::max();
    fleet::FleetLinkTransport tp(cfg.scenario, policy,
                                 common::Db{cfg.contention_penalty_db}, wire_bits);
    const std::size_t n = std::min<std::size_t>(links.size(), 16);
    tp.begin_window(std::vector<fleet::FleetLinkTransport::LinkInfo>(
                        links.begin(), links.begin() + static_cast<std::ptrdiff_t>(n)),
                    rng.child(3));
    common::Rng poll_rng = rng.child(4);
    std::vector<double> t;
    for (std::size_t i = 0; i < n; ++i) {
      vab::bytes wire = wire0;
      Tracer::Scope s(tracer, "net.poll_waveform");
      (void)tp.uplink_delivered(static_cast<std::uint8_t>(i), wire, poll_rng);
      t.push_back(s.seconds());
    }
    out.poll_waveform_ms = mean(t) * 1e3;
  }
  {
    std::vector<std::uint8_t> population;
    for (std::size_t i = 0; i < std::min(links.size(), fleet::kWindowAddrs); ++i)
      population.push_back(static_cast<std::uint8_t>(i));
    common::Rng inv_rng = rng.child(5);
    std::size_t polls = 0;
    Tracer::Scope s(tracer, "net.inventory");
    while (polls < 20000) {
      const vab::net::InventoryResult r =
          vab::net::run_inventory(population, cfg.inventory, nullptr, inv_rng);
      if (r.polls == 0) throw std::runtime_error("inventory made no polls");
      polls += r.polls;
    }
    out.inventory_us_per_poll = s.seconds() * 1e6 / static_cast<double>(polls);
  }
  {
    const sim::LinkBudget budget(cfg.scenario);
    constexpr std::size_t kCalls = 20000;
    Tracer::Scope s(tracer, "linkbudget.evaluate");
    for (std::size_t i = 0; i < kCalls; ++i)
      (void)budget.evaluate(common::Meters{ranges[i % ranges.size()]});
    out.evaluate_ns = s.seconds() * 1e9 / static_cast<double>(kCalls);
  }
  return out;
}

}  // namespace perfbench
