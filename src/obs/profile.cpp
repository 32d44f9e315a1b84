#include "obs/profile.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

#include "obs/json.hpp"
#include "obs/manifest.hpp"

namespace vab::obs {

namespace {

// One open frame while walking a thread's spans in begin-time order.
struct Frame {
  const char* name;
  std::uint64_t t1;
  std::uint64_t dur;
  std::uint64_t child_ns = 0;
  std::string path;  // semicolon-joined stack down to this frame
};

struct Aggregator {
  std::map<std::string, StageProfile> stages;
  std::map<std::string, std::uint64_t> folded;

  void close(const Frame& f) {
    const std::uint64_t self = f.dur > f.child_ns ? f.dur - f.child_ns : 0;
    StageProfile& s = stages[f.name];
    if (s.name.empty()) s.name = f.name;
    ++s.calls;
    s.total_ns += f.dur;
    s.self_ns += self;
    folded[f.path] += self;
  }
};

}  // namespace

ProfileSummary profile_spans(std::vector<CollectedSpan> spans,
                             std::uint64_t dropped) {
  // Group by thread, then order by (t0 asc, t1 desc, name) so a parent
  // precedes the children it encloses even at equal begin timestamps, and
  // ties break deterministically for synthetic (test) inputs.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.t0 != b.t0) return a.t0 < b.t0;
                     if (a.t1 != b.t1) return a.t1 > b.t1;
                     return std::strcmp(a.name, b.name) < 0;
                   });

  Aggregator agg;
  std::vector<Frame> stack;
  std::uint32_t cur_tid = 0;
  bool first = true;
  auto flush_stack = [&] {
    while (!stack.empty()) {
      agg.close(stack.back());
      stack.pop_back();
    }
  };
  for (const CollectedSpan& e : spans) {
    if (!e.name) continue;
    if (first || e.tid != cur_tid) {
      flush_stack();
      cur_tid = e.tid;
      first = false;
    }
    // A frame that ended at or before this span's begin is a finished
    // sibling/ancestor; anything still open contains (or overlaps) us.
    while (!stack.empty() && stack.back().t1 <= e.t0) {
      agg.close(stack.back());
      stack.pop_back();
    }
    Frame f;
    f.name = e.name;
    f.t1 = e.t1;
    f.dur = e.t1 > e.t0 ? e.t1 - e.t0 : 0;
    f.path = stack.empty() ? std::string(e.name)
                           : stack.back().path + ";" + e.name;
    if (!stack.empty()) stack.back().child_ns += f.dur;
    stack.push_back(std::move(f));
  }
  flush_stack();

  ProfileSummary out;
  out.dropped = dropped;
  out.stages.reserve(agg.stages.size());
  for (auto& [name, stage] : agg.stages) out.stages.push_back(std::move(stage));
  out.folded.assign(agg.folded.begin(), agg.folded.end());
  return out;
}

ProfileSummary profile_from_trace() {
  std::uint64_t dropped = 0;
  std::vector<CollectedSpan> spans = collect_trace_spans(&dropped);
  return profile_spans(std::move(spans), dropped);
}

std::string profile_json(const ProfileSummary& p) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "vab-profile-v1");
  w.key("manifest").raw(manifest_json());
  w.field("dropped", p.dropped);
  w.key("stages").begin_object();
  for (const StageProfile& s : p.stages) {
    w.key(s.name).begin_object();
    w.field("calls", s.calls);
    w.field("total_ns", s.total_ns);
    w.field("self_ns", s.self_ns);
    w.end_object();
  }
  w.end_object();
  w.key("folded").begin_array();
  for (const auto& [path, self_ns] : p.folded) {
    w.begin_array();
    w.value(path);
    w.value(self_ns);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool write_profile(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << profile_json(profile_from_trace()) << "\n";
  return static_cast<bool>(f);
}

}  // namespace vab::obs
