#include "obs/labels.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace vab::obs {

namespace {

bool legal_label_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

void validate_token(const std::string& s, const char* what) {
  if (s.empty())
    throw std::invalid_argument(std::string("label ") + what + " is empty");
  for (const char c : s) {
    if (!legal_label_char(c))
      throw std::invalid_argument(std::string("label ") + what + " '" + s +
                                  "' has characters outside [A-Za-z0-9_.-]");
  }
}

}  // namespace

std::string encode_labels(const LabelSet& labels) {
  if (labels.empty()) throw std::invalid_argument("label set is empty");
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.first < b.first; });
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    validate_token(sorted[i].first, "key");
    validate_token(sorted[i].second, "value");
    if (i > 0) {
      if (sorted[i].first == sorted[i - 1].first)
        throw std::invalid_argument("duplicate label key '" + sorted[i].first + "'");
      out += ',';
    }
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  out += '}';
  return out;
}

// Family bookkeeping: the canonical-suffix -> counter cache, the cap, and
// the drop counter.
struct CounterFamily::Impl {
  Registry* reg;
  std::string name;
  std::mutex mu;
  std::map<std::string, Counter> series;  // canonical suffix -> handle
  std::size_t max_series;
  Counter overflow;
  Counter dropped_ctr;

  Impl(Registry& r, std::string n, std::size_t cap)
      : reg(&r),
        name(std::move(n)),
        max_series(cap),
        overflow(r.counter(name + "{overflow}")),
        dropped_ctr(r.counter(name + ".labels_dropped")) {}
};

CounterFamily::CounterFamily(Registry& reg, std::string name,
                             std::size_t max_series)
    : impl_(std::make_shared<Impl>(reg, std::move(name), max_series)) {}

Counter CounterFamily::with(const LabelSet& labels) const {
  const std::string suffix = encode_labels(labels);
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->series.find(suffix);
  if (it != impl_->series.end()) return it->second;
  if (impl_->series.size() >= impl_->max_series) {
    impl_->dropped_ctr.inc();
    return impl_->overflow;
  }
  Counter c = impl_->reg->counter(impl_->name + suffix);
  impl_->series.emplace(suffix, c);
  return c;
}

}  // namespace vab::obs
