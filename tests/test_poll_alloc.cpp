// Heap traffic of the poll exchange: after warm-up, a query -> report ->
// ACK exchange must not allocate. This executable replaces the global
// operator new with a counting one, so it stands alone: no other test
// shares its process or its counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "net/inventory.hpp"
#include "net/mac.hpp"
#include "net/mcs/mcs.hpp"
#include "net/mcs/transport.hpp"
#include "net/transport.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/scenario.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, so GCC does not pair an inlined free() with a call site's
// operator new and warn about a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*n*/) noexcept {
  std::free(p);
}

namespace vab {
namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWarmupPolls = 256;
constexpr std::size_t kCountedPolls = 4096;

/// One reader and kNodes nodes polled round-robin over `transport`, with
/// the caller-side ARQ steps run_inventory takes on a miss.
struct PollBench {
  PollBench(const net::InventoryConfig& inv, net::LinkTransport& medium)
      : cfg(inv), reader(cfg.timing, cfg.arq), transport(medium) {
    for (std::size_t a = 0; a < kNodes; ++a)
      nodes.emplace_back(static_cast<std::uint8_t>(a), cfg.timing);
    if (cfg.ladder != nullptr) {
      reader.enable_mcs(*cfg.ladder, cfg.adapt);
      for (auto& n : nodes) n.enable_mcs(*cfg.ladder);
    }
  }

  void poll(std::size_t i) {
    net::NodeMac& node = nodes[i % kNodes];
    const net::SensorReading reading{12.0 + static_cast<double>(i % 50), 101.3, 2900};
    const net::PollOutcome out = net::poll_exchange(reader, node, reading, cfg, transport,
                                                    nullptr, rng, res);
    if (out == net::PollOutcome::kDelivered) ++res.delivered;
    if (out == net::PollOutcome::kMiss &&
        reader.on_miss(node.address()) == net::ReaderMac::MissAction::kDemote) {
      reader.demote(node.address());
      ++res.demotions;
    }
  }

  /// Heap allocations over kCountedPolls polls after kWarmupPolls.
  std::size_t steady_state_allocations() {
    std::size_t i = 0;
    for (; i < kWarmupPolls; ++i) poll(i);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (; i < kWarmupPolls + kCountedPolls; ++i) poll(i);
    return g_allocations.load(std::memory_order_relaxed) - before;
  }

  net::InventoryConfig cfg;
  net::ReaderMac reader;
  std::vector<net::NodeMac> nodes;
  net::LinkTransport& transport;
  common::Rng rng{0x9011};
  net::InventoryResult res;
};

TEST(PollAlloc, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  std::vector<int> v(16);
  volatile int* sink = v.data();
  (void)sink;
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(PollAlloc, IidLossPollIsAllocationFree) {
  // Lossy legs exercise the miss, lost-ACK and duplicate paths too.
  net::IidLossTransport tp(0.3, 0.3);
  PollBench bench(net::InventoryConfig{}, tp);
  EXPECT_EQ(bench.steady_state_allocations(), 0u);
  EXPECT_EQ(bench.res.polls, kWarmupPolls + kCountedPolls);
  EXPECT_GT(bench.res.acks_lost, 0u);
  EXPECT_GT(bench.res.duplicates, 0u);
}

TEST(PollAlloc, BudgetFleetPollIsAllocationFree) {
  const sim::Scenario base = sim::vab_river_scenario();
  sim::fleet::FidelityPolicy policy;
  policy.mode = sim::fleet::FidelityMode::kBudgetOnly;
  const std::size_t report_bits = net::wire_size(net::kReadingBytes) * 8;
  sim::fleet::FleetLinkTransport tp(base, policy, common::Db{3.0}, report_bits);
  // Ranges from solid to past the waterfall, so polls both land and miss.
  std::vector<sim::fleet::FleetLinkTransport::LinkInfo> links;
  for (std::size_t a = 0; a < kNodes; ++a)
    links.push_back({static_cast<std::uint32_t>(a), 50.0 + 60.0 * static_cast<double>(a),
                     common::SnrDb{0.0}});
  tp.begin_window(std::move(links), common::Rng(3));
  PollBench bench(net::InventoryConfig{}, tp);
  EXPECT_EQ(bench.steady_state_allocations(), 0u);
  EXPECT_EQ(tp.tally().budget_polls, kWarmupPolls + kCountedPolls);
  EXPECT_GT(bench.res.delivered, 0u);
  EXPECT_LT(bench.res.delivered, bench.res.polls);
}

TEST(PollAlloc, LadderPollIsAllocationFree) {
  // MCS mode adds the commanded-rung query byte, the rate controller and
  // the per-rung poll counter. A rung's counter series and residency entry
  // are resolved on its first poll (lazily, so unused rungs never appear);
  // a frozen controller keeps every poll on one rung, so after warm-up no
  // first poll remains.
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  net::InventoryConfig cfg;
  cfg.ladder = &ladder;
  cfg.adapt.frozen = true;
  cfg.adapt.start_rung = 2;
  net::mcs::AnalyticMcsConfig tcfg;
  tcfg.snr_ref_db = 12.0;
  tcfg.fading_sigma_db = 4.0;
  tcfg.reply_loss_prob = 0.1;
  tcfg.ack_loss_prob = 0.1;
  net::mcs::AnalyticMcsTransport tp(ladder, tcfg);
  PollBench bench(cfg, tp);
  EXPECT_EQ(bench.steady_state_allocations(), 0u);
  ASSERT_EQ(bench.reader.rung_polls().size(), 1u);
  EXPECT_EQ(bench.reader.rung_polls().begin()->first, 2u);
  EXPECT_GT(bench.res.delivered, 0u);
}

}  // namespace
}  // namespace vab
