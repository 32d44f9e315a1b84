// DSP microbenchmarks (google-benchmark): throughput of the kernels that
// dominate the reader's real-time budget.
#include <benchmark/benchmark.h>

#include <vector>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/step_signal.hpp"
#include "dsp/workspace.hpp"
#include "net/frame.hpp"
#include "net/inventory.hpp"
#include "net/mac.hpp"
#include "phy/modem.hpp"
#include "sim/fleet/event_queue.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/medium.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace {

using namespace vab;

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  cvec x(n);
  for (auto& v : x) v = rng.complex_gaussian();
  for (auto _ : state) {
    cvec y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_FirFilterComplex(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  common::Rng rng(2);
  dsp::FirFilter f(dsp::design_lowpass(2500.0, 96000.0, taps));
  cvec x(8192);
  for (auto& v : x) v = rng.complex_gaussian();
  for (auto _ : state) {
    cvec y = f.process(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_FirFilterComplex)->Arg(63)->Arg(127)->Arg(255);

void BM_Downconvert(benchmark::State& state) {
  const rvec x = dsp::make_tone(18500.0, 96000.0, 65536);
  for (auto _ : state) {
    cvec y = dsp::downconvert(x, 18500.0, 96000.0);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_Downconvert);

void BM_NoiseSynthesis(benchmark::State& state) {
  common::Rng rng(3);
  const channel::NoiseConditions cond{};
  const auto n = static_cast<std::size_t>(state.range(0));
  rvec y;
  for (auto _ : state) {
    channel::synthesize_ambient_noise(n, common::SampleRateHz{96000.0}, cond, rng, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
// 131,072 is the FFT size of a waveform trial's ~81.6k-sample capture.
BENCHMARK(BM_NoiseSynthesis)->Arg(65536)->Arg(131072);

// A waveform trial's ambient noise as the simulator draws it: at the
// demodulator's 8 kHz output rate, shaped by its front-end filter, from an
// 8,192-point spectrum (the river scenario's front end keeps 3.5k-6.8k
// samples of a capture).
void BM_BasebandNoise(benchmark::State& state) {
  const sim::Scenario sc = sim::vab_river_scenario();
  const phy::ReaderDemodulator demod(sc.phy);
  common::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  cvec y(n);
  for (auto _ : state) {
    channel::add_baseband_noise(common::SampleRateHz{sc.phy.fs_hz},
                                common::Hz{sc.phy.carrier_hz}, demod.lowpass_taps(),
                                sc.phy.decimation(), sc.env.noise, rng, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BasebandNoise)->Arg(8192);

// The static-tap gather of one channel leg: the river 300 m forward taps
// over a trial-length (81,569-sample) carrier.
void BM_ApplyTaps(benchmark::State& state) {
  sim::Scenario sc = sim::vab_river_scenario();
  sc.range_m = 300.0;
  channel::WaveformChannelConfig cfg;
  cfg.fs_hz = sc.phy.fs_hz;
  cfg.taps = sim::forward_taps(sc);
  common::Rng rng(4);
  const channel::WaveformChannel ch(cfg, rng);
  const rvec tx = dsp::make_tone(sc.phy.carrier_hz, sc.phy.fs_hz, 81569, 1.0, 0.0);
  rvec out;
  for (auto _ : state) {
    ch.propagate_clean(tx, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tx.size()));
}
BENCHMARK(BM_ApplyTaps);

// The envelope front end on a river 300 m capture: the carrier through the
// forward taps, a 64-bit FM0 frame's chip runs, the return taps and the
// blast, then the run-summed downconversion + decimating FIR.
void BM_EnvelopeFrontEnd(benchmark::State& state) {
  sim::Scenario sc = sim::vab_river_scenario();
  sc.range_m = 300.0;
  const phy::PhyConfig& phy = sc.phy;
  common::Rng rng(5);
  channel::WaveformChannelConfig cfg;
  cfg.fs_hz = phy.fs_hz;
  cfg.taps = sim::forward_taps(sc);
  dsp::StepSignal tx;
  tx.reset(common::kTwoPi * phy.carrier_hz / phy.fs_hz, 81569);
  tx.starts = {0};
  tx.values = {cplx{1e4, 0.0}};
  dsp::StepSignal incident, reflected, ret, blast, rx, capture;
  channel::WaveformChannel(cfg, rng).propagate_envelope(tx, phy.decimation(), incident);
  const phy::BackscatterModulator mod(phy);
  std::vector<phy::SwitchRun> runs;
  mod.switch_runs(rng.random_bits(64), runs);
  std::vector<std::size_t> starts{0};
  rvec gains{0.1};
  for (const auto& r : runs) {
    starts.push_back(r.start + 6500);
    gains.push_back(r.active ? (r.state ? 1.1 : -0.9) : 0.1);
  }
  dsp::modulate(incident, starts, gains, reflected);
  cfg.taps = sim::return_taps(sc);
  channel::WaveformChannel(cfg, rng).propagate_envelope(reflected, phy.decimation(), ret);
  cfg.taps = sim::blast_taps(sc);
  channel::WaveformChannel(cfg, rng).propagate_envelope(tx, phy.decimation(), blast);
  dsp::add(ret, blast, rx);
  dsp::window(rx, 320, tx.length, capture);
  const phy::ReaderDemodulator demod(phy);
  cvec out;
  for (auto _ : state) {
    demod.front_end(capture, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["runs"] = static_cast<double>(capture.runs());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_EnvelopeFrontEnd);

// The return leg of a river 300 m trial: the carrier through the forward
// taps, modulated by a 64-bit FM0 frame's chip runs, then merged through the
// return taps' shifted step streams (dsp::merge_events).
void BM_EnvelopeReturnLeg(benchmark::State& state) {
  sim::Scenario sc = sim::vab_river_scenario();
  sc.range_m = 300.0;
  const phy::PhyConfig& phy = sc.phy;
  common::Rng rng(5);
  channel::WaveformChannelConfig cfg;
  cfg.fs_hz = phy.fs_hz;
  cfg.taps = sim::forward_taps(sc);
  dsp::StepSignal tx;
  tx.reset(common::kTwoPi * phy.carrier_hz / phy.fs_hz, 81569);
  tx.starts = {0};
  tx.values = {cplx{1e4, 0.0}};
  dsp::StepSignal incident, reflected, ret;
  channel::WaveformChannel(cfg, rng).propagate_envelope(tx, phy.decimation(), incident);
  const phy::BackscatterModulator mod(phy);
  std::vector<phy::SwitchRun> runs;
  mod.switch_runs(rng.random_bits(64), runs);
  std::vector<std::size_t> starts{0};
  rvec gains{0.1};
  for (const auto& r : runs) {
    starts.push_back(r.start + 6500);
    gains.push_back(r.active ? (r.state ? 1.1 : -0.9) : 0.1);
  }
  dsp::modulate(incident, starts, gains, reflected);
  cfg.taps = sim::return_taps(sc);
  const channel::WaveformChannel ret_leg(cfg, rng);
  for (auto _ : state) {
    ret_leg.propagate_envelope(reflected, phy.decimation(), ret);
    benchmark::DoNotOptimize(ret.values.data());
    benchmark::ClobberMemory();
  }
  state.counters["runs"] = static_cast<double>(ret.runs());
  state.counters["taps"] = static_cast<double>(cfg.taps.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ret.runs()));
}
BENCHMARK(BM_EnvelopeReturnLeg);

// The per-bin draws of a 131,072-point synthesis: nfft - 2 normals through
// the dispatched batch sampler.
void BM_GaussianFill(benchmark::State& state) {
  common::Rng rng(3);
  std::vector<double> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dsp::simd::fill_gaussian(rng, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GaussianFill)->Arg(131070);

// Preamble sync: the demodulator's find_peak over a 6,769-sample baseband
// capture (6,410 lags) against the 500-bps sync reference (360 samples, 40
// steps), the shape of a wave_campaign trial's capture.
void BM_StepCorrelateSync(benchmark::State& state) {
  const phy::ReaderDemodulator demod{phy::PhyConfig{}};
  const dsp::StepSignal& ref = demod.sync_reference();
  common::Rng rng(5);
  cvec sig(6769);
  for (auto& v : sig) v = rng.complex_gaussian();
  for (auto _ : state) {
    auto peak = dsp::find_peak(sig, ref, 0.0);
    benchmark::DoNotOptimize(peak);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sig.size() - ref.length + 1));
}
BENCHMARK(BM_StepCorrelateSync);

void BM_FirDecimate(benchmark::State& state) {
  common::Rng rng(9);
  const rvec taps = dsp::design_lowpass(2500.0, 192000.0, 255,
                                        dsp::WindowType::kKaiser, 12.0);
  cvec x(131072);
  for (auto& v : x) v = rng.complex_gaussian();
  cvec y;
  for (auto _ : state) {
    dsp::fir_filter_decimate(taps, x, 24, 447, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_FirDecimate);

// Scalar-forced A/B twins of the vectorized kernels: identical workloads with
// the dispatcher pinned to the reference ISA for the duration of the run.
// The ratio BM_X / BM_XScalar is the measured SIMD speedup on this machine;
// both twins sit in check_bench's watchlist so neither the vector nor the
// reference path can silently regress.
class ScalarForced {
 public:
  ScalarForced() { dsp::simd::force_isa(dsp::simd::Isa::kScalar); }
  ~ScalarForced() { dsp::simd::reset_isa(); }
  ScalarForced(const ScalarForced&) = delete;
  ScalarForced& operator=(const ScalarForced&) = delete;
};

void BM_FftScalar(benchmark::State& state) {
  const ScalarForced guard;
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  cvec x(n);
  for (auto& v : x) v = rng.complex_gaussian();
  for (auto _ : state) {
    cvec y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftScalar)->Arg(8192)->Arg(65536);

void BM_GaussianFillScalar(benchmark::State& state) {
  const ScalarForced guard;
  common::Rng rng(3);
  std::vector<double> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dsp::simd::fill_gaussian(rng, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GaussianFillScalar)->Arg(131070);

// End-to-end waveform trial (single thread): the unit of work every
// EXPERIMENTS sweep repeats thousands of times.
void BM_WaveformTrial(benchmark::State& state) {
  sim::Scenario sc;
  sc.range_m = 100.0;
  common::Rng rng(11);
  const bitvec payload = rng.random_bits(64);
  for (auto _ : state) {
    common::Rng trial_rng(12);
    sim::WaveformSimulator ws(sc, trial_rng);
    auto res = ws.run_trial(payload);
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WaveformTrial);

void BM_WaveformTrialScalar(benchmark::State& state) {
  const ScalarForced guard;
  sim::Scenario sc;
  sc.range_m = 100.0;
  common::Rng rng(11);
  const bitvec payload = rng.random_bits(64);
  for (auto _ : state) {
    common::Rng trial_rng(12);
    sim::WaveformSimulator ws(sc, trial_rng);
    auto res = ws.run_trial(payload);
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WaveformTrialScalar);

void BM_FullDemodulate(benchmark::State& state) {
  phy::PhyConfig cfg;
  cfg.fs_hz = 96000.0;
  common::Rng rng(4);
  const bitvec payload = rng.random_bits(64);
  phy::BackscatterModulator mod(cfg);
  const bitvec states = mod.switch_waveform(payload);
  const bitvec mask = mod.active_mask(payload.size());
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, states.size() + 1024);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double coef = 1.0;
    if (i < states.size() && mask[i]) coef += 0.01 * (states[i] ? 1.0 : -1.0);
    x[i] *= coef;
  }
  phy::ReaderDemodulator demod(cfg);
  for (auto _ : state) {
    auto res = demod.demodulate(x, payload.size());
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_FullDemodulate);

// Fleet-core kernels: the event queue, the spatial partition, and one
// budget-fidelity fleet run — the hot path of the node-count scaling sweep.
void BM_FleetEventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(13);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  for (auto _ : state) {
    sim::fleet::EventQueue q;
    for (std::size_t i = 0; i < n; ++i)
      q.push(sim::fleet::Event{times[i], static_cast<std::uint32_t>(i), 0, 0});
    std::uint64_t acc = 0;
    while (auto ev = q.pop()) acc += ev->entity;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FleetEventQueue)->Arg(4096)->Arg(65536);

void BM_FleetGridQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(14);
  std::vector<sim::fleet::Position> pts(n);
  for (auto& p : pts) p = {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
  const sim::fleet::SpatialGrid grid(pts, common::Meters{50.0});
  std::vector<std::uint32_t> out;
  std::size_t probe = 0;
  for (auto _ : state) {
    grid.query(pts[probe % n], common::Meters{250.0}, out);
    benchmark::DoNotOptimize(out.data());
    ++probe;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FleetGridQuery)->Arg(10000)->Arg(100000);

void BM_FleetBudgetRun(benchmark::State& state) {
  sim::fleet::FleetConfig fc;
  fc.scenario = sim::vab_river_scenario();
  fc.n_nodes = static_cast<std::size_t>(state.range(0));
  fc.n_readers = 4;
  fc.area_m = 800.0;
  fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  const common::Rng rng(15);
  for (auto _ : state) {
    auto res = sim::fleet::run_fleet(fc, rng);
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FleetBudgetRun)->Arg(1000);

// The two per-poll costs of a budget-fidelity poll outside the MAC: one link
// budget evaluation per link and window, and one report frame serialized and
// parsed back (CRC appended, then checked in place).
void BM_LinkBudgetEvaluate(benchmark::State& state) {
  const sim::LinkBudget lb(sim::vab_river_scenario());
  common::Rng rng(16);
  std::vector<double> ranges(1024);
  for (auto& r : ranges) r = rng.uniform(10.0, 3000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = lb.evaluate(common::Meters{ranges[i++ & 1023]});
    benchmark::DoNotOptimize(r.ber);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkBudgetEvaluate);

void BM_FrameRoundTrip(benchmark::State& state) {
  net::Frame f;
  f.addr = 7;
  f.type = net::FrameType::kSensorReport;
  f.seq = 3;
  f.payload = {0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC};  // a 6-byte sensor reading
  for (auto _ : state) {
    const auto res = net::parse_checked(net::serialize(f));
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameRoundTrip);

// One budget-fidelity poll exchange as a fleet window runs it: query ->
// report over the link budget's fade-and-coin -> CRC-checked parse -> ACK.
// The link sits well inside range, so nearly every poll delivers.
void BM_PollExchange(benchmark::State& state) {
  const net::InventoryConfig cfg;
  net::ReaderMac reader(cfg.timing, cfg.arq);
  net::NodeMac node(0, cfg.timing);
  sim::fleet::FidelityPolicy policy;
  policy.mode = sim::fleet::FidelityMode::kBudgetOnly;
  sim::fleet::FleetLinkTransport tp(sim::vab_river_scenario(), policy, common::Db{3.0},
                                    net::wire_size(net::kReadingBytes) * 8);
  tp.begin_window({{0, 100.0, common::SnrDb{0.0}}}, common::Rng(17));
  const net::SensorReading reading{12.0, 101.3, 2900};
  common::Rng rng(18);
  net::InventoryResult res;
  for (auto _ : state) {
    const auto out =
        net::poll_exchange(reader, node, reading, cfg, tp, nullptr, rng, res);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PollExchange);

}  // namespace

BENCHMARK_MAIN();
