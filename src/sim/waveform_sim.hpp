// Full waveform-level end-to-end trial:
//
//   projector carrier --forward multipath--> node
//   node: reflection-coefficient sequence (array modulation + static leak)
//   node --return multipath--> hydrophone  (+ direct projector blast + noise)
//   reader demodulator -> bits
//
// This exercises every DSP block under the real impairments (multipath ISI,
// carrier blast, Wenz noise, fading, surface motion) and is the ground truth
// the analytic link budget is calibrated against. Every signal up to the
// receiver's front end is the carrier times a piecewise-constant envelope
// (dsp::StepSignal), so the trial carries the runs of that envelope, not
// passband samples; the result equals the passband chain up to rounding.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "phy/modem.hpp"
#include "sim/scenario.hpp"

namespace vab::sim {

struct WaveformTrialResult {
  phy::DemodResult demod;
  bitvec tx_bits;
  std::size_t bit_errors = 0;
  std::size_t fec_corrections = 0;  ///< Hamming blocks repaired (coded runs)
  bool frame_ok = false;          ///< sync found and zero bit errors
  double incident_spl_at_node_db = 0.0;
};

/// The scenario-only part of a waveform trial: the scenario, the node's
/// reflection amplitudes from its Van Atta array, the modulator, the
/// demodulator (anti-alias Kaiser, prefix tables, sync reference) and the
/// forward, return and blast tap sets. No draw changes any of it, so it is
/// built once per job and shared read-only by every trial and every worker
/// thread. A trial's mutable state, its Rng and its FaultInjector, lives in
/// the WaveformSimulator.
class WaveformSetup {
 public:
  explicit WaveformSetup(Scenario scenario);

  /// This set-up's scenario moved to `range`: new tap sets on the same
  /// PHY chain (modulator, demodulator, amplitudes), which is shared, not
  /// rebuilt.
  WaveformSetup at_range(common::Meters range) const;

  const Scenario& scenario() const { return scenario_; }
  const phy::BackscatterModulator& modulator() const { return chain_->modulator; }
  const phy::ReaderDemodulator& demodulator() const { return chain_->demodulator; }
  const std::vector<channel::PathTap>& forward() const { return fwd_taps_; }
  const std::vector<channel::PathTap>& ret() const { return ret_taps_; }
  const std::vector<channel::PathTap>& blast() const { return blast_taps_; }

  /// The node's reflection coefficient as a step gain for dsp::modulate:
  /// the static leak, plus the array's modulated amplitude on each active
  /// chip from `start_offset` on (the node begins its frame once the carrier
  /// reaches it: carrier-detect trigger).
  void reflection_gains(const bitvec& payload, std::size_t start_offset,
                        std::vector<std::size_t>& starts, rvec& gains) const;

 private:
  /// What depends only on the PHY and the node, not on the geometry.
  struct Chain {
    phy::BackscatterModulator modulator;
    phy::ReaderDemodulator demodulator;
    double mod_amp_lin = 0.0;  ///< absolute linear reflection amplitude (1 m ref)
    double static_amp_lin = 0.0;
  };

  WaveformSetup(Scenario scenario, std::shared_ptr<const Chain> chain);

  Scenario scenario_;
  std::shared_ptr<const Chain> chain_;
  std::vector<channel::PathTap> fwd_taps_;
  std::vector<channel::PathTap> ret_taps_;
  std::vector<channel::PathTap> blast_taps_;
};

class WaveformSimulator {
 public:
  /// A simulator with a set-up of its own, built from `scenario`.
  WaveformSimulator(Scenario scenario, common::Rng& rng);
  /// A simulator on a shared set-up, which must outlive it.
  WaveformSimulator(const WaveformSetup& setup, common::Rng& rng);

  /// Runs one uplink trial with the given payload bits.
  WaveformTrialResult run_trial(const bitvec& payload);

  const Scenario& scenario() const { return setup_->scenario(); }

 private:
  std::unique_ptr<const WaveformSetup> owned_;
  const WaveformSetup* setup_;
  common::Rng* rng_;
  /// Engaged when the scenario carries a non-empty FaultPlan; applied to the
  /// return leg (SNR dips on the backscattered signal). Per simulator, not
  /// in the set-up: the injector draws from its own stream, which a trial
  /// advances.
  std::optional<fault::FaultInjector> fault_;
};

}  // namespace vab::sim
