// E8 — Self-interference cancellation: carrier suppression and decode
// success vs SIC configuration, with the projector blast swept relative to
// the backscatter level. Also the equalizer ablation.
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/mixer.hpp"
#include "phy/coding.hpp"
#include "phy/modem.hpp"

namespace {

using namespace vab;

// Synthetic capture: blast + modulated backscatter + white noise.
rvec make_capture(const phy::PhyConfig& cfg, const bitvec& payload, double mod_amp,
                  double blast_amp, double noise_rms, common::Rng& rng) {
  phy::BackscatterModulator mod(cfg);
  const bitvec states = mod.switch_waveform(payload);
  const bitvec mask = mod.active_mask(payload.size());
  const std::size_t n = states.size() + 1024;
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, n);
  for (std::size_t i = 0; i < n; ++i) {
    double coef = blast_amp;
    if (i < states.size() && mask[i]) coef += mod_amp * (states[i] ? 1.0 : -1.0);
    x[i] *= coef;
    x[i] += noise_rms * rng.gaussian();
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg_args = common::Config::from_args(argc, argv);
  bench::banner("E8", "Self-interference cancellation",
                "the direct blast sits tens of dB above the backscatter; "
                "SIC recovers it");

  common::Rng rng(cfg_args.get_count("seed", 8));
  bench::init_threads(cfg_args);
  bench::Stopwatch sw;

  struct RowResult {
    double suppression_db = 0.0;
    bool sync = false;
    std::size_t bit_errors = 0;
  };

  // Part 1: suppression + decode vs blast-to-signal ratio. Each capture is
  // self-contained (own child stream) — fan the rows out.
  const std::vector<double> bsrs{40.0, 60.0, 80.0, 90.0};
  std::vector<RowResult> part1(bsrs.size());
  common::parallel_for(0, bsrs.size(), [&](std::size_t i) {
    const double bsr_db = bsrs[i];
    phy::PhyConfig cfg;
    cfg.fs_hz = 96000.0;
    common::Rng local = rng.child(static_cast<std::uint64_t>(bsr_db));
    const bitvec payload = local.random_bits(64);
    const double mod_amp = std::pow(10.0, -bsr_db / 20.0);
    const rvec x = make_capture(cfg, payload, mod_amp, 1.0, mod_amp * 0.05, local);
    phy::ReaderDemodulator demod(cfg);
    const auto res = demod.demodulate(x, payload.size());
    part1[i] = {res.sic_suppression_db, res.sync_found,
                res.sync_found ? phy::hamming_distance(res.bits, payload) : 0};
  });
  common::Table t({"blast_over_signal_db", "sic_suppression_db", "sync", "bit_errors"});
  for (std::size_t i = 0; i < bsrs.size(); ++i) {
    t.add_row({common::Table::num(bsrs[i], 0),
               common::Table::num(part1[i].suppression_db, 1),
               part1[i].sync ? "yes" : "no",
               part1[i].sync ? std::to_string(part1[i].bit_errors) : "-"});
  }
  bench::emit(t, cfg_args);

  // Part 2: ablation of the receive-chain stages at 80 dB blast.
  std::cout << "receive-chain ablation (80 dB blast-to-signal):\n";
  struct Ablation {
    bool notch, eq;
  };
  const std::vector<Ablation> ablations{{true, true}, {true, false},
                                        {false, true}, {false, false}};
  std::vector<RowResult> part2(ablations.size());
  common::parallel_for(0, ablations.size(), [&](std::size_t i) {
    phy::PhyConfig cfg;
    cfg.fs_hz = 96000.0;
    cfg.sic.enable_dc_notch = ablations[i].notch;
    cfg.enable_equalizer = ablations[i].eq;
    common::Rng local =
        rng.child(static_cast<std::uint64_t>(ablations[i].notch * 2 +
                                             ablations[i].eq + 10));
    const bitvec payload = local.random_bits(64);
    const double mod_amp = 1e-4;
    const rvec x = make_capture(cfg, payload, mod_amp, 1.0, mod_amp * 0.05, local);
    phy::ReaderDemodulator demod(cfg);
    const auto res = demod.demodulate(x, payload.size());
    part2[i] = {res.sic_suppression_db, res.sync_found,
                res.sync_found ? phy::hamming_distance(res.bits, payload) : 0};
  });
  common::Table a({"dc_notch", "equalizer", "sync", "bit_errors"});
  for (std::size_t i = 0; i < ablations.size(); ++i) {
    a.add_row({ablations[i].notch ? "on" : "off", ablations[i].eq ? "on" : "off",
               part2[i].sync ? "yes" : "no",
               part2[i].sync ? std::to_string(part2[i].bit_errors) : "-"});
  }
  bench::emit(a, common::Config{});
  bench::emit_timing("E8", "sic_captures", sw.seconds(), bsrs.size() + ablations.size());
  return 0;
}
