// Carrier-borne signals as a piecewise-constant complex envelope.
//
// A StepSignal stands for the real passband samples
//
//   x[n] = Re{ v(n) e^{j omega n} },   0 <= n < length,
//
// on the simulator's passband sample grid, where the envelope v(n) is
// constant between a few step indices: zero before starts[0], values[i] on
// [starts[i], starts[i+1]), values.back() from starts.back() up to length,
// and zero at and past length. The reader's continuous carrier, the node's
// chip-rate reflection and every multipath leg between them (a tap is a
// delay and a complex gain at the carrier) are of this form, so a waveform
// trial carries a few thousand runs instead of ~10^5 passband samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace vab::dsp {

struct StepSignal {
  double omega = 0.0;               ///< carrier, radians per sample
  std::size_t length = 0;           ///< samples on the passband grid
  std::vector<std::size_t> starts;  ///< run starts, strictly increasing, < length
  cvec values;                      ///< envelope value of each run

  /// Empties the runs and sets the carrier and grid length.
  void reset(double carrier_omega, std::size_t n);
  std::size_t runs() const { return starts.size(); }
  /// End of run i: the next run's start, or `length` for the last run.
  std::size_t run_end(std::size_t i) const {
    return i + 1 < starts.size() ? starts[i + 1] : length;
  }
};

/// A step of `delta` in an envelope at sample `pos`.
struct StepEvent {
  std::size_t pos = 0;
  cplx delta;
};

/// `x` as an envelope at carrier 0 over x.size() samples: one run per
/// stretch of equal samples.
void runs_of(const cvec& x, StepSignal& out);

/// The steps of `x`: one per run (its change from the previous run) and the
/// fall to zero at `x.length`, in sample order.
void step_events(const StepSignal& x, std::vector<StepEvent>& events);

/// A sorted event list, delayed by `shift` samples and scaled by `gain`.
struct EventStream {
  std::span<const StepEvent> events;
  std::size_t shift = 0;
  cplx gain{1.0, 0.0};
};

/// Sums the streams into `out`'s runs: the envelope is the running sum of
/// every shifted, scaled step. Steps at one sample combine into one run, in
/// stream order; steps at or past `out.length` are dropped. `out.omega` and
/// `out.length` are the caller's (see StepSignal::reset). The streams are
/// merged through a min-heap keyed by (next sample, stream index), so a run
/// costs O(log K) heap work per stream stepping at it, not a scan of all K
/// streams; each stream's events must be sorted by `pos`.
void merge_events(std::span<const EventStream> streams, StepSignal& out);

/// out = x times a real step gain: `gains[i]` on [gain_starts[i],
/// gain_starts[i+1]), the last gain to the end. gain_starts[0] must be 0.
void modulate(const StepSignal& x, std::span<const std::size_t> gain_starts,
              std::span<const double> gains, StepSignal& out);

/// out = a + b on max(a.length, b.length) samples; a and b share a carrier.
void add(const StepSignal& a, const StepSignal& b, StepSignal& out);

/// Samples [begin, end) of x as a signal of its own: out[i] = x[begin + i].
/// The envelope is rotated by e^{j omega begin} so that the carrier phase
/// restarts at 0 on out's first sample.
void window(const StepSignal& x, std::size_t begin, std::size_t end, StepSignal& out);

/// Sum of x[n]^2 over the grid, in closed form per run.
double energy(const StepSignal& x);

/// Root mean square of x over its `length` samples (0 when empty).
double rms(const StepSignal& x);

}  // namespace vab::dsp
