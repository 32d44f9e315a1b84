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
#include <optional>
#include <vector>

#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
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

class WaveformSimulator {
 public:
  WaveformSimulator(Scenario scenario, common::Rng& rng);

  /// Runs one uplink trial with the given payload bits.
  WaveformTrialResult run_trial(const bitvec& payload);

  const Scenario& scenario() const { return scenario_; }

 private:
  /// The node's reflection coefficient as a step gain for dsp::modulate:
  /// the static leak, plus the array's modulated amplitude on each active
  /// chip from `start_offset` on (the node begins its frame once the carrier
  /// reaches it: carrier-detect trigger).
  void reflection_gains(const bitvec& payload, std::size_t start_offset,
                        std::vector<std::size_t>& starts, rvec& gains) const;

  Scenario scenario_;
  common::Rng* rng_;
  /// Engaged when the scenario carries a non-empty FaultPlan; applied to the
  /// return leg (SNR dips on the backscattered signal).
  std::optional<fault::FaultInjector> fault_;
  vanatta::VanAttaArray array_;
  phy::BackscatterModulator modulator_;
  phy::ReaderDemodulator demodulator_;
  double mod_amp_lin_ = 0.0;     ///< absolute linear reflection amplitude (1 m ref)
  double static_amp_lin_ = 0.0;
};

}  // namespace vab::sim
