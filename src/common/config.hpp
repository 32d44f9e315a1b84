// Tiny key=value configuration store with typed getters.
//
// Examples accept `key=value` command-line overrides (e.g. `range_m=150
// bitrate=500`) so scenarios can be explored without recompiling.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vab::common {

class Config {
 public:
  Config() = default;

  /// Parses `key=value` tokens; tokens without '=' raise.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  /// Finite decimal number; `nan`, `inf` and surrounding whitespace throw.
  double get_double(const std::string& key, double fallback) const;
  /// Unsigned decimal count (digits only: no sign, no whitespace); a value
  /// that does not fit a std::size_t throws.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vab::common
