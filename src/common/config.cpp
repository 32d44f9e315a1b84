#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace vab::common {

namespace {
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("expected key=value, got '" + tok + "'");
    cfg.set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  if (key.empty()) throw std::invalid_argument("empty config key");
  values_[key] = value;
}

bool Config::has(const std::string& key) const { return values_.contains(key); }

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // Strict parse: the whole value must be consumed. std::stod alone accepts
  // "1.5abc" as 1.5, which silently turns a typo'd override (range_m=100m)
  // into a plausible number instead of an error; it also skips leading
  // whitespace and reads "nan"/"inf", none of which is a usable setting.
  const std::string& text = it->second;
  try {
    if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())))
      throw std::invalid_argument("leading whitespace");
    std::size_t consumed = 0;
    const double v = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing characters");
    if (!std::isfinite(v)) throw std::invalid_argument("not finite");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "' is not a finite number: " +
                                text);
  }
}

std::size_t Config::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // from_chars on an unsigned type takes digits only: "-1", "+5" and " 5"
  // stop at the first character, and overflow reports out of range instead
  // of wrapping (stoul would turn "-1" into 2^64 - 1).
  const std::string& text = it->second;
  std::size_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::invalid_argument("config key '" + key + "' is not a count: " + text);
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  // Plain ::tolower(char) is UB for negative chars (cert-str34-c); widen
  // through unsigned char first.
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config key '" + key + "' is not a boolean: " + it->second);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace vab::common
