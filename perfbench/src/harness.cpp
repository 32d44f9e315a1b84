#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text.front() == '-')
    throw std::invalid_argument(key + ": expected a non-negative integer, got '" +
                                text + "'");
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + ": missing value");
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = parse_u64(key, val);
    } else if (key == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(key, val));
      if (o.seconds < 1.0) throw std::invalid_argument("--seconds must be >= 1");
    } else if (key == "--trace") {
      const std::uint64_t t = parse_u64(key, val);
      if (t > 1) throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (key == "--threads") {
      const std::uint64_t t = parse_u64(key, val);
      if (t < 1 || t > 256) throw std::invalid_argument("--threads must be 1..256");
      o.threads = static_cast<unsigned>(t);
    } else if (key == "--workdir") {
      o.workdir = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double p : kLadder) {
    // Nearest rank (1-based): the smallest rank covering p% of the samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < 10) continue;
    return Tail{samples[rank - 1], p, n};
  }
  return std::nullopt;
}

BestOfPasses::BestOfPasses(std::size_t ops)
    : best_s_(ops, std::numeric_limits<double>::infinity()), repeats_(ops, 0) {}

bool BestOfPasses::more(std::size_t i, double t0_s, double seconds) const {
  return i < ops() || now_s() - t0_s < seconds;
}

void BestOfPasses::record(std::size_t op, double wall_s) {
  best_s_[op] = std::min(best_s_[op], wall_s);
  ++repeats_[op];
}

double BestOfPasses::median_rate(const std::vector<double>& work) const {
  std::vector<double> rates;
  for (std::size_t k = 0; k < ops(); ++k)
    if (repeats_[k] > 0) rates.push_back(work[k] / best_s_[k]);
  return median(std::move(rates));
}

std::pair<std::size_t, std::size_t> BestOfPasses::repeats() const {
  const auto [lo, hi] = std::minmax_element(repeats_.begin(), repeats_.end());
  return {*lo, *hi};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFULL;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span s;
  s.name = name;
  s.parent = tracer.open_.empty() ? -1 : static_cast<int>(tracer.open_.back());
  s.op = tracer.op_;
  s.t0_s = now_s();
  tracer.spans_.push_back(s);
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].t1_s = now_s();
  tracer_.open_.pop_back();
}

double Tracer::Scope::seconds() const {
  const Span& s = tracer_.spans_[index_];
  return (s.t1_s > 0.0 ? s.t1_s : now_s()) - s.t0_s;
}

double Tracer::total_s(const char* name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) t += s.t1_s - s.t0_s;
  return t;
}

std::vector<double> Tracer::durations_s(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) out.push_back(s.t1_s - s.t0_s);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  vab::obs::JsonWriter w;
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.field("name", s.name);
    w.field("t0_s", s.t0_s);
    w.field("t1_s", s.t1_s);
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.field("op", s.op);
    w.end_object();
  }
  w.end_array();
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

std::string Result::json() const {
  vab::obs::JsonWriter w;
  w.begin_object();
  w.field("correct", correct());
  w.field("attempted", static_cast<std::uint64_t>(attempted));
  w.field("failed", static_cast<std::uint64_t>(failed));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

void report_failure(const std::string& what) { std::cout << "FAIL " << what << "\n"; }

}  // namespace perfbench
