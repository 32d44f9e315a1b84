// Run manifest: a process-global key/value description of the run (library
// version, build type, seed, thread count, config snapshot) embedded in every
// metrics snapshot, trace file and BENCH line so any artifact can be traced
// back to the exact run that produced it.
#pragma once

#include <map>
#include <string>

namespace vab::obs {

/// Sets (or overwrites) one manifest entry. Thread-safe.
void set_manifest(const std::string& key, const std::string& value);

/// Copy of the full manifest, including the built-in defaults
/// (library/version/build_type). Keys come back alphabetically ordered.
std::map<std::string, std::string> manifest();

/// The manifest as a JSON object fragment, e.g.
/// {"build_type":"RelWithDebInfo","library":"vab",...} — keys alphabetical,
/// values escaped. Suitable for JsonWriter::raw().
std::string manifest_json();

}  // namespace vab::obs
