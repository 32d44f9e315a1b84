// Slotted Q-style inventory MAC with capture effect.
//
// The simulator's one framed-slotted-Aloha engine: a frame-synced slot
// counter, four slot outcomes (idle / success / collision / capture), Gen2
// floating-Q frame-size adaptation, and physical-layer capture arbitration
// (anticollision/capture.hpp) when several nodes reflect in one slot. The
// fleet core runs it per window as its kSlotted MAC, in place of the
// window-granular "3 dB per contender" SINR penalty; node discovery (EXT-4,
// bench/fig_discovery) runs it over equal-power contenders, where a shared
// slot can only collide.
//
// Backscatter nodes cannot carrier-sense, so everything — slot boundaries,
// outcome classification, Q updates — lives at the reader; nodes only count
// announced slots and reflect in the one they drew. That is why a scripted
// reader-side trace fully determines the protocol and the conformance suite
// can assert it step by step.
//
// Determinism: each round draws one uniform_int slot per unresolved
// contender, in ascending contender order, then one delivery coin per
// decode attempt (winner of each non-idle slot), in ascending slot order.
// A round ends early (Gen2 QueryAdjust) when the integer Q moves: the
// remaining slots are never walked, their would-be winners recontend, and
// no coins are drawn for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/anticollision/capture.hpp"

namespace vab::net::anticollision {

struct QConfig {
  double q_init = 4.0;    ///< starting floating Q (frame = 2^round(Q) slots)
  double q_min = 0.0;
  double q_max = 15.0;
  double c_up = 0.35;     ///< added to Qfp per collision slot
  double c_down = 0.25;   ///< subtracted per idle slot
  CaptureConfig capture;  ///< physical-layer slot arbitration
  std::size_t max_rounds = 64;
  bool record_trace = false;  ///< keep the per-slot trace (conformance tests)
};

enum class SlotKind : std::uint8_t { kIdle, kSuccess, kCollision, kCapture };

/// One node contending for inventory slots.
struct Contender {
  std::uint16_t id = 0;
  double rx_power_rel = 1.0;   ///< received reply power (linear, relative)
  double delivery_prob = 1.0;  ///< P(winning reply decodes) at its link SNR
};

/// One slot of the reader-side trace (record_trace only).
struct SlotRecord {
  std::size_t round = 0;
  std::size_t slot = 0;
  SlotKind kind = SlotKind::kIdle;
  std::size_t occupants = 0;
  std::uint16_t winner = 0;  ///< meaningful for kSuccess / kCapture
};

struct SlottedResult {
  std::size_t rounds = 0;
  std::size_t slots = 0;
  std::size_t idle_slots = 0;
  std::size_t success_slots = 0;
  std::size_t collision_slots = 0;
  std::size_t capture_slots = 0;
  std::size_t decode_failures = 0;  ///< winner's reply failed its coin
  std::vector<std::uint16_t> resolved;  ///< resolution order
  bool complete = false;  ///< every contender resolved within max_rounds
  double final_qfp = 0.0;
  std::vector<SlotRecord> trace;

  /// Conservation invariant: every slot is exactly one of the four kinds.
  bool conserves() const {
    return idle_slots + success_slots + collision_slots + capture_slots == slots;
  }
};

/// Reader-side floating-Q state machine (EPC Gen2 shape). Pure protocol
/// logic with no channel model, so scripted traces pin it exactly.
class QAdapter {
 public:
  explicit QAdapter(const QConfig& cfg);

  /// Current integer Q (Qfp rounded to nearest, clamped).
  std::uint8_t q() const;
  std::size_t frame_slots() const { return std::size_t{1} << q(); }
  double qfp() const { return qfp_; }

  /// Folds one classified slot into Qfp: collision -> +c_up, idle ->
  /// -c_down, success/capture -> unchanged.
  void on_slot(SlotKind kind);

 private:
  QConfig cfg_;
  double qfp_;
};

/// Runs slotted inventory until every contender is resolved or
/// `cfg.max_rounds` frames elapse. Draw order is documented in the header
/// comment; obs counters `net.slotted.*` record slot outcomes.
SlottedResult run_slotted_inventory(const std::vector<Contender>& contenders,
                                    const QConfig& cfg, common::Rng& rng);

}  // namespace vab::net::anticollision
