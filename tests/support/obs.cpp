#include "support/obs.hpp"

#include <map>
#include <stdexcept>

namespace vab::obs {

namespace {

/// The "counters" object of a snapshot: {"name":N,...}. Counter names never
/// contain a quote or a backslash, so no unescaping is needed.
std::map<std::string, std::uint64_t> counters(const Registry& reg) {
  const std::string snap = reg.snapshot_json(false);
  const std::string open = "\"counters\":{";
  std::size_t at = snap.find(open);
  if (at == std::string::npos) throw std::runtime_error("snapshot has no counters");
  at += open.size();
  std::map<std::string, std::uint64_t> out;
  while (snap.at(at) == '"') {
    const std::size_t close = snap.find('"', at + 1);
    std::string name = snap.substr(at + 1, close - at - 1);
    std::size_t end = 0;
    out[std::move(name)] = std::stoull(snap.substr(close + 2), &end);
    at = close + 2 + end;
    if (snap.at(at) == ',') ++at;
  }
  return out;
}

}  // namespace

std::uint64_t counter_value(const Registry& reg, const std::string& name) {
  const auto all = counters(reg);
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second;
}

std::size_t series_count(const Registry& reg, const std::string& family) {
  std::size_t n = 0;
  for (const auto& [name, value] : counters(reg))
    if (name.starts_with(family + "{") && name != family + "{overflow}") ++n;
  return n;
}

}  // namespace vab::obs
