// Minimal streaming JSON writer shared by the metrics snapshot, the Chrome
// trace exporter and the bench BENCH line. Handles string escaping (the old
// hand-rolled bench writer interpolated bench_id/section unescaped) and
// comma/nesting bookkeeping; emission order is exactly call order, so sorted
// inputs produce byte-deterministic output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vab::obs {

/// Escapes `s` for use inside a JSON string literal (quotes not included):
/// `"`, `\`, and control characters become their escape sequences; other
/// bytes (including UTF-8 multibyte sequences) pass through untouched.
std::string json_escape(std::string_view s);

/// Formats a double the way JSON expects: the shortest decimal string that
/// round-trips to exactly the same double (std::to_chars shortest form), so
/// no value is silently altered by serialization. NaN and infinities (not
/// representable in JSON) degrade to `null`.
std::string json_number(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next object member (callers alternate key/value).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Emits a raw pre-serialized JSON fragment as the next value.
  JsonWriter& raw(std::string_view fragment);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void before_value();

  std::string out_;
  // One entry per open container: true until the first member is written.
  std::vector<bool> first_;
  bool pending_key_ = false;
};

}  // namespace vab::obs
