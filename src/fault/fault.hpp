// Seeded, deterministic fault injection for the net layer and the waveform
// pipeline.
//
// A FaultPlan describes the impairments a run should suffer: whole-frame
// drops, tail truncation, bit flips, reply-loss bursts driven by a
// Gilbert–Elliott two-state channel, node dropout (a duty-cycled node that
// sleeps through a downlink), clock skew on slot timing, and SNR dips
// carved into propagated waveforms. A FaultInjector executes the plan with
// its *own* RNG stream derived from `plan.seed`, so arming faults never
// consumes a draw from the caller's generator — and an empty plan never
// draws at all. Consumers hold a nullable `FaultInjector*`; with nullptr
// (or an empty plan) every hook is a no-op and seeded outputs are
// bit-identical to a build that predates this subsystem.
//
// Determinism contract: one injector per simulated run, stepped only from
// that run's call sequence. Parallel sweeps give each cell its own injector
// (mirroring the per-trial Rng::child discipline), so results are
// thread-count-invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace vab::fault {

/// Two-state burst-loss channel (Gilbert–Elliott): a Markov chain between a
/// "good" and a "bad" state with per-state loss probabilities. The classic
/// model for the fading-induced loss bursts underwater links suffer.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  ///< transition probability per reply, good -> bad
  double p_bad_to_good = 0.3;  ///< transition probability per reply, bad -> good
  double loss_good = 0.0;      ///< reply-loss probability while good
  double loss_bad = 1.0;       ///< reply-loss probability while bad

  bool enabled() const { return p_good_to_bad > 0.0 || loss_good > 0.0; }
  /// Stationary (long-run) loss rate of the chain.
  double mean_loss() const;
};

/// Scheduled impairments for one run. Default-constructed = no faults.
struct FaultPlan {
  std::uint64_t seed = 0xFA171ULL;  ///< injector stream seed (decoupled from run seed)

  GilbertElliottConfig burst{};     ///< uplink reply-loss bursts

  // Frame-level corruption, applied to serialized wire bytes.
  double frame_drop_prob = 0.0;      ///< whole frame eaten by the channel
  double frame_truncate_prob = 0.0;  ///< tail cut mid-frame (fade-out)
  double bit_flip_prob = 0.0;        ///< per-frame probability of a bit-flip burst
  std::size_t bit_flip_count = 2;    ///< flips per corrupted frame

  // Node-side failure modes.
  double wake_miss_prob = 0.0;   ///< duty-cycled node sleeps through a downlink
  double dropout_prob = 0.0;     ///< node offline for a whole inventory round
  double clock_skew_rel = 0.0;   ///< uniform ±rel fraction of a slot of timing skew

  // Waveform-level impairment: occasional SNR dips (shadowing events).
  double snr_dip_prob = 0.0;          ///< per-propagate probability of a dip window
  double snr_dip_db = 0.0;            ///< dip depth in dB
  double snr_dip_duration_frac = 0.25;  ///< dip length as a fraction of the waveform

  /// True when no impairment is configured; hooks on an empty plan return
  /// immediately without drawing randomness.
  bool empty() const;
};

/// What the channel did to a frame handed to `corrupt_frame`.
enum class FrameFate : std::uint8_t { kIntact, kDropped, kTruncated, kCorrupted };

/// One SNR dip window: `gain` on samples [start, start + len).
struct SnrDip {
  std::size_t start = 0;
  std::size_t len = 0;
  double gain = 1.0;
};

/// Executes a FaultPlan. Stateful (Gilbert–Elliott state, RNG stream) and
/// deliberately *not* thread-safe: one injector per simulated run.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return !plan_.empty(); }

  /// Steps the Gilbert–Elliott chain once; true = this reply is lost.
  bool reply_lost();

  /// Applies drop/truncate/bit-flip impairments to serialized frame bytes
  /// in place. kDropped leaves `wire` untouched (the caller discards it).
  FrameFate corrupt_frame(bytes& wire);

  /// True = the node slept through this downlink (wake-up receiver missed
  /// the carrier; arXiv:2405.18000's duty-cycling failure mode).
  bool wake_missed();

  /// True = the node is offline for this whole round (fouling, stranding).
  bool dropped_out();

  /// Additive timing skew for one uplink slot of nominal duration `slot_s`,
  /// drawn uniform in ±clock_skew_rel * slot_s. A reply skewed out of its
  /// slot window is counted as a miss by the reader MAC.
  double clock_skew_s(double slot_s);

  /// Draws whether an `n`-sample waveform suffers a dip (probability
  /// `snr_dip_prob`: shadowing, a vessel crossing the path) and where: a
  /// window of `snr_dip_duration_frac` x n samples attenuated by
  /// `snr_dip_db`. Makes the draws `apply_snr_dip` makes on n samples.
  std::optional<SnrDip> draw_snr_dip(std::size_t n);

  /// Attenuates `samples` by the window `draw_snr_dip(samples.size())` drew.
  /// Returns true when a dip was applied.
  bool apply_snr_dip(rvec& samples);

  /// True while the Gilbert–Elliott chain sits in the bad state (tests).
  bool in_burst() const { return ge_bad_; }

 private:
  FaultPlan plan_;
  common::Rng rng_;
  bool ge_bad_ = false;
};

}  // namespace vab::fault
