// Shared machinery of the repository benchmark: command-line options,
// timing, the percentile rule, the benchmark's own span recorder, outcome
// fingerprints and the one-line JSON result.
//
// Every workload is a closed loop: one caller issues the next operation when
// the previous one returns. End-to-end metrics come from untraced runs;
// `--trace 1` runs record spans from the benchmark's files around calls into
// the library's modules and report per-layer metrics instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parallel-engine threads for the workloads that use the engine; set
  /// explicitly, never inherited from VAB_THREADS. One by default: on a
  /// shared host a 2-thread campaign's speed follows how the host schedules
  /// the second vCPU, and moved ~4x as much from run to run as a serial one.
  unsigned threads = 1;
  /// Scratch directory for campaign checkpoints and trace files.
  std::string workdir = ".bench_build/work";
  /// Run the workload's set-up only and print `setup_s <value>`.
  bool setup_only = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --threads T
/// --workdir D [--setup-only]`; throws std::invalid_argument on anything
/// malformed.
Options parse_options(int argc, char** argv);

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// A tail percentile chosen by the ">= 10 samples beyond it" rule: the
/// highest of 50, 75, 90, 95, 98, 99, 99.5, 99.9 whose nearest-rank value
/// leaves at least ten samples above its rank. Empty when fewer than 20
/// samples exist (not even the median qualifies).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
std::optional<Tail> tail_percentile(std::vector<double> samples);

/// Closed-loop passes over a fixed set of operations 0..n-1, each operation
/// keeping the shortest wall time of its repeats. Other tenants of a shared
/// host only ever add time, and they come and go over tens of seconds; an
/// operation's fastest repeat is the reading that depends least on them.
/// Rates are taken per operation from that reading, and their median over
/// the operations is reported.
class BestOfPasses {
 public:
  explicit BestOfPasses(std::size_t ops);
  std::size_t ops() const { return best_s_.size(); }
  /// Loop guard: the first pass always runs in full, later passes run while
  /// fewer than `seconds` have passed since `t0_s`.
  bool more(std::size_t i, double t0_s, double seconds) const;
  void record(std::size_t op, double wall_s);
  /// Median over the timed operations of work[op] / shortest wall.
  double median_rate(const std::vector<double>& work) const;
  /// Repeats per operation: fewest and most.
  std::pair<std::size_t, std::size_t> repeats() const;

 private:
  std::vector<double> best_s_;
  std::vector<std::size_t> repeats_;
};

/// Peak resident set size of this process, MB (10^6 bytes).
double peak_rss_mb();

/// FNV-1a fold over 64-bit words; doubles fold by their bit pattern, so two
/// fingerprints agree only when every folded value is bit-identical.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Spans recorded by the benchmark around its calls into the library.
/// Single-threaded: spans open and close on the thread that drives the
/// workload (parallel work inside a call is covered by the caller's span).
/// Spans stay in memory and are written out when the workload ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< "<layer>.<call>", a string literal
    double t0_s = 0.0;
    double t1_s = 0.0;
    int parent = -1;             ///< index of the enclosing span, -1 at top
    std::uint64_t op = 0;        ///< operation the span belongs to
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (or final duration once closed), seconds.
    double seconds() const;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  void set_op(std::uint64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of spans named `name`.
  double total_s(const char* name) const;
  /// Durations of every span named `name`, in recording order.
  std::vector<double> durations_s(const char* name) const;

  /// Writes the spans as a JSON array; false when the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation prints as its last stdout line.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when a check outside the per-operation accounting failed (for
  /// example a fingerprint that differs between thread counts).
  bool checks_ok = true;
  std::vector<Metric> metrics;
  /// Set-up time of this process; main() reports it as `setup_s`.
  double setup_s = 0.0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  bool correct() const { return failed == 0 && checks_ok; }
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
  std::string json() const;
};

/// Prints "FAIL <what>" to stdout; the caller also counts the failure.
void report_failure(const std::string& what);

}  // namespace perfbench
