// ARQ inventory under a hostile channel: a reader collects one ACKed report
// from every node through Gilbert–Elliott burst loss, wake misses, and frame
// corruption, and prints what the retry protocol had to do to get there.
//
//   ./hostile_inventory [nodes=12] [mean_loss=0.25] [seed=7]
#include <iostream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "net/inventory.hpp"

int main(int argc, char** argv) {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  const auto n_nodes = cfg.get_count("nodes", 12);
  const double mean_loss = cfg.get_double("mean_loss", 0.25);
  common::Rng rng(cfg.get_count("seed", 7));

  std::vector<std::uint8_t> population(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i)
    population[i] = static_cast<std::uint8_t>(i + 1);

  // Burst loss tuned to the requested mean, plus mild wake misses and bit
  // flips.
  fault::FaultPlan plan;
  plan.seed = 0x40571E;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.p_good_to_bad = 0.3 * mean_loss / (1.0 - mean_loss);
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  plan.wake_miss_prob = 0.05;
  plan.bit_flip_prob = 0.05;
  fault::FaultInjector inj(plan);

  std::cout << "inventory of " << n_nodes << " nodes through a "
            << common::Table::num(100.0 * plan.burst.mean_loss(), 0)
            << "% burst-loss channel\n\n";

  net::InventoryConfig inv;
  const net::InventoryResult r = net::run_inventory(population, inv, &inj, rng);

  common::Table t({"metric", "value"});
  t.add_row({"delivered", std::to_string(r.delivered) + "/" + std::to_string(r.nodes)});
  t.add_row({"delivery_ratio", common::Table::num(r.delivery_ratio(), 3)});
  t.add_row({"polls", std::to_string(r.polls)});
  t.add_row({"retries", std::to_string(r.retries)});
  t.add_row({"timeouts", std::to_string(r.timeouts)});
  t.add_row({"duplicates_deduped", std::to_string(r.duplicates)});
  t.add_row({"acks_sent", std::to_string(r.acks_sent)});
  t.add_row({"demotions", std::to_string(r.demotions)});
  t.add_row({"rounds", std::to_string(r.rounds)});
  t.add_row({"airtime_s", common::Table::num(r.duration_s, 2)});
  std::cout << t.to_string();

  std::cout << "\n"
            << (r.complete ? "complete: every node delivered within the retry budget"
                           : "INCOMPLETE: poll budget exhausted")
            << "\n";
  return r.complete ? 0 : 1;
}
