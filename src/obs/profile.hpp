// Span-aggregation profiler: folds the per-thread trace ring buffers into
// per-stage self/total time, call counts and folded-stack output, exported
// as `vab-profile-v1` JSON. This is the attribution story behind a
// check_bench regression — "the run got 20% slower" becomes "demod.sync
// self-time doubled".
//
// Aggregation model (per thread, spans sorted by begin time):
//  - spans nest by containment, exactly as trace viewers render them;
//  - a span's *total* time is its full duration, its *self* time is the
//    duration minus time spent in directly nested spans (clamped at zero
//    for malformed overlaps), so per stage self_ns <= total_ns always;
//  - every span also credits its self time to the semicolon-joined stack
//    path ("fleet.run;linkbudget.eval"), the folded-stack format consumed
//    by flamegraph.pl and speedscope (`vab_report.py --folded` renders it).
//
// Times are wall-clock, so a profile is *not* byte-deterministic between
// runs — call counts are, and `vab_report.py --diff` compares exactly those.
// Ring overwrites make attribution partial; the export carries the dropped
// count so a truncated profile is never mistaken for a complete one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace vab::obs {

/// Aggregate for one span name.
struct StageProfile {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  ///< sum of span durations
  std::uint64_t self_ns = 0;   ///< total minus directly nested span time
};

struct ProfileSummary {
  std::vector<StageProfile> stages;  ///< alphabetical by name
  /// Folded stacks: ("a;b;c", self_ns aggregated over all occurrences),
  /// sorted by stack path.
  std::vector<std::pair<std::string, std::uint64_t>> folded;
  std::uint64_t dropped = 0;  ///< spans lost to ring overwrites
};

/// Aggregates an explicit span list (unit tests, external traces). Spans
/// may arrive unsorted; nesting is inferred per tid by containment.
ProfileSummary profile_spans(std::vector<CollectedSpan> spans,
                             std::uint64_t dropped = 0);

/// Aggregates whatever the trace rings currently hold.
ProfileSummary profile_from_trace();

/// `vab-profile-v1` JSON:
///   {"schema":"vab-profile-v1","manifest":{...},"dropped":N,
///    "stages":{"name":{"calls":C,"total_ns":T,"self_ns":S},...},
///    "folded":[["a;b",S],...]}
/// Stage names alphabetical, folded entries sorted by stack path.
std::string profile_json(const ProfileSummary& p);

/// Writes profile_json(profile_from_trace()) to `path`; false when the file
/// cannot be opened.
bool write_profile(const std::string& path);

}  // namespace vab::obs
