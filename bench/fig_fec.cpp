// Extension bench — coded vs uncoded link: Hamming(7,4)+interleaver at the
// range edge. The code costs 10log10(7/4) = 2.4 dB of chip energy (same
// data rate -> 7/4 chip rate) and buys single-error-per-block correction;
// the crossover sits where raw BER enters the waterfall.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "phy/ber.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace vab;

// Simulates data-bit BER through the codec at a given raw channel BER.
// Packets fan out over the parallel engine, one child stream per packet, so
// the result is bit-identical for any thread count.
double coded_ber(double raw_ber, std::size_t data_bits, std::size_t packets,
                 const common::Rng& rng) {
  std::vector<std::size_t> packet_errors(packets, 0);
  common::parallel_for(0, packets, [&](std::size_t p) {
    phy::FrameCodec codec;
    common::Rng pkt_rng = rng.child(p);
    const bitvec data = pkt_rng.random_bits(data_bits);
    bitvec coded = codec.encode(data);
    for (auto& b : coded)
      if (pkt_rng.coin(raw_ber)) b ^= 1;
    std::size_t corrected = 0;
    const bitvec decoded = codec.decode(coded, data_bits, corrected);
    packet_errors[p] = phy::hamming_distance(decoded, data);
  });
  std::size_t errors = 0;
  for (std::size_t e : packet_errors) errors += e;
  return static_cast<double>(errors) / static_cast<double>(packets * data_bits);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("EXT-3", "FEC at the range edge",
                "Hamming(7,4)+interleaving extends the usable range past the waterfall");

  common::Rng rng(cfg.get_count("seed", 23));
  const auto packets = cfg.get_count("packets", 200);
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  // Range sweep: uncoded BER from the link budget; coded BER at the same
  // data rate pays the 7/4 bandwidth penalty in chip SNR.
  const sim::LinkBudget lb(sim::vab_river_scenario());
  const double rate_penalty_db = 10.0 * std::log10(7.0 / 4.0);

  common::Table t({"range_m", "uncoded_ber", "coded_raw_ber", "coded_data_ber",
                   "verdict"});
  for (double r : {250.0, 300.0, 350.0, 400.0, 450.0}) {
    const auto clean = lb.evaluate(common::Meters{r});
    const double snr_coded_db = clean.snr_chip_db.raw() - rate_penalty_db;
    const double raw_coded =
        phy::ber_fm0(std::pow(10.0, snr_coded_db / 10.0));
    common::Rng local = rng.child(static_cast<std::uint64_t>(r));
    const double data_ber = coded_ber(raw_coded, 64, packets, local);
    t.add_row({common::Table::num(r, 0), common::Table::sci(clean.ber),
               common::Table::sci(raw_coded), common::Table::sci(data_ber),
               data_ber < clean.ber ? "coding wins" : "uncoded wins"});
  }
  bench::emit(t, cfg);
  bench::emit_timing("EXT-3", "coded_ber_packets", sw.seconds(), 5 * packets);
  return 0;
}
