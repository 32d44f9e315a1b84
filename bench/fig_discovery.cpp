// Extension bench — node discovery cost: slots (and airtime) to inventory an
// unknown population with the Gen2 floating-Q slotted MAC
// (net/anticollision/slotted.hpp), vs population size and reply-loss rate.
// Every node replies at equal power, so a shared slot is always a collision.
#include <iostream>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/anticollision/slotted.hpp"
#include "net/mac.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("EXT-4", "Node discovery (slotted Aloha, adaptive Q)",
                "a freshly deployed field is inventoried without knowing any address");

  common::Rng rng(cfg.get_count("seed", 24));
  const std::size_t seeds = cfg.get_count("seeds", 20);
  bench::init_threads(cfg);
  bench::Stopwatch sw;
  const net::MacTiming timing{};
  const double slot_s = timing.slot_duration_s();

  net::anticollision::QConfig qc;
  qc.q_init = 2.0;
  qc.q_max = 8.0;
  qc.max_rounds = 256;

  common::Table t({"nodes", "loss", "avg_slots", "slots_per_node", "airtime_s",
                   "complete"});
  std::size_t runs = 0;
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    for (double loss : {0.0, 0.2}) {
      // Seeds are independent runs: fan them out, fold in seed order.
      struct SeedResult {
        std::size_t slots = 0;
        bool complete = false;
      };
      std::vector<SeedResult> per_seed(seeds);
      common::parallel_for(0, seeds, [&](std::size_t s) {
        std::vector<net::anticollision::Contender> pop(n);
        for (std::size_t i = 0; i < n; ++i)
          pop[i] = {static_cast<std::uint16_t>(i + 1), 1.0, 1.0 - loss};
        common::Rng local =
            rng.child(n * 1000 + s + static_cast<std::uint64_t>(loss * 10));
        const auto res = net::anticollision::run_slotted_inventory(pop, qc, local);
        per_seed[s] = {res.slots, res.complete};
      });
      double slots_acc = 0.0;
      std::size_t complete = 0;
      for (const auto& r : per_seed) {
        slots_acc += static_cast<double>(r.slots);
        if (r.complete) ++complete;
      }
      runs += seeds;
      const double avg_slots = slots_acc / static_cast<double>(seeds);
      t.add_row({std::to_string(n), common::Table::num(loss, 1),
                 common::Table::num(avg_slots, 1),
                 common::Table::num(avg_slots / static_cast<double>(n), 2),
                 common::Table::num(avg_slots * slot_s, 1),
                 std::to_string(complete) + "/" + std::to_string(seeds)});
    }
  }
  bench::emit(t, cfg);
  bench::emit_timing("EXT-4", "discovery_seeds", sw.seconds(), runs);
  std::cout << "framed slotted Aloha optimum is 1/0.368 = 2.72 slots per node;\n"
               "the adaptive-Q controller should sit within ~2x of that.\n";
  return 0;
}
