#include "obs/manifest.hpp"

#include <mutex>

#include "obs/json.hpp"

#ifndef VAB_VERSION
#define VAB_VERSION "0.0.0-dev"
#endif
#ifndef VAB_BUILD_TYPE
#define VAB_BUILD_TYPE "unknown"
#endif

namespace vab::obs {

namespace {

struct ManifestState {
  std::mutex mu;
  std::map<std::string, std::string> entries;
  ManifestState() {
    entries["library"] = "vab";
    entries["version"] = VAB_VERSION;
    entries["build_type"] = VAB_BUILD_TYPE;
  }
};

// Leaked on purpose: the manifest is read by atexit flush handlers, which
// would race a static destructor.
ManifestState& state() {
  static ManifestState* s = new ManifestState;
  return *s;
}

}  // namespace

void set_manifest(const std::string& key, const std::string& value) {
  ManifestState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.entries[key] = value;
}

std::map<std::string, std::string> manifest() {
  ManifestState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.entries;
}

std::string manifest_json() {
  const auto entries = manifest();
  JsonWriter w;
  w.begin_object();
  for (const auto& [k, v] : entries) w.field(k, v);
  w.end_object();
  return w.take();
}

}  // namespace vab::obs
