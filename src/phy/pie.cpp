#include "phy/pie.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vab::phy {

namespace {
void append_level(rvec& env, double level, double duration_s, double fs_hz) {
  const auto n = static_cast<std::size_t>(std::round(duration_s * fs_hz));
  env.insert(env.end(), n, level);
}
}  // namespace

rvec pie_encode_envelope(const bitvec& bits, double fs_hz) {
  if (fs_hz <= 0.0) throw std::invalid_argument("bad PIE sample rate");
  rvec env;
  const double pw = kPiePwRatio * kPieTariS;
  // Leading carrier so the node's envelope detector settles, then delimiter.
  append_level(env, 1.0, 2.0 * kPieTariS, fs_hz);
  append_level(env, 0.0, kPieDelimiterTaris * kPieTariS, fs_hz);
  for (auto b : bits) {
    const double high = (b & 1u) ? kPieOneRatio * kPieTariS : kPieTariS;
    append_level(env, 1.0, high, fs_hz);
    append_level(env, 0.0, pw, fs_hz);
  }
  // Trailing carrier marks end of frame.
  append_level(env, 1.0, 2.0 * kPieTariS, fs_hz);
  return env;
}

std::optional<bitvec> pie_decode_envelope(const rvec& envelope, double fs_hz) {
  if (envelope.empty()) return std::nullopt;
  const double high = *std::max_element(envelope.begin(), envelope.end());
  if (high <= 0.0) return std::nullopt;
  const double thr = 0.5 * high;

  // Run-length extraction.
  struct Run {
    bool on;
    std::size_t len;
  };
  std::vector<Run> runs;
  bool cur = envelope[0] > thr;
  std::size_t len = 1;
  for (std::size_t i = 1; i < envelope.size(); ++i) {
    const bool on = envelope[i] > thr;
    if (on == cur) {
      ++len;
    } else {
      runs.push_back({cur, len});
      cur = on;
      len = 1;
    }
  }
  runs.push_back({cur, len});

  const double tari_samples = kPieTariS * fs_hz;

  // Debounce: multipath interference makes the envelope chatter across the
  // threshold at symbol edges, inserting sub-tari glitch runs. Merge any run
  // shorter than a tenth of a tari into its neighbours until stable.
  const auto min_run = static_cast<std::size_t>(0.1 * tari_samples);
  bool merged = true;
  while (merged && runs.size() >= 3) {
    merged = false;
    for (std::size_t i = 1; i + 1 < runs.size(); ++i) {
      if (runs[i].len >= min_run) continue;
      runs[i - 1].len += runs[i].len + runs[i + 1].len;
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(i),
                 runs.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      merged = true;
      break;
    }
  }
  const double delim_samples = kPieDelimiterTaris * tari_samples;

  // Find the delimiter: an off-run close to the expected length that is
  // preceded by carrier (an on-run of at least one tari). The precondition
  // rejects the propagation-delay silence at the start of a capture, which
  // can coincidentally match the delimiter length.
  std::size_t start = runs.size();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const bool preceded_by_carrier =
        runs[i - 1].on && static_cast<double>(runs[i - 1].len) > 0.5 * tari_samples;
    if (!runs[i].on && preceded_by_carrier &&
        std::abs(static_cast<double>(runs[i].len) - delim_samples) <
            0.25 * delim_samples) {
      start = i + 1;
      break;
    }
  }
  if (start >= runs.size()) return std::nullopt;

  // Each data symbol is a high run followed by a ~pw low pulse; the trailing
  // end-of-frame carrier is a high run followed by nothing (or by a low far
  // longer than pw) and terminates the frame.
  bitvec bits;
  const double threshold_samples = 1.5 * tari_samples;
  const double pw_samples = kPiePwRatio * tari_samples;
  for (std::size_t i = start; i < runs.size(); ++i) {
    if (!runs[i].on) continue;
    const bool followed_by_pw =
        (i + 1 < runs.size()) && !runs[i + 1].on &&
        static_cast<double>(runs[i + 1].len) > 0.5 * pw_samples &&
        static_cast<double>(runs[i + 1].len) < 2.0 * pw_samples;
    if (!followed_by_pw) break;  // trailing carrier (or truncated frame)
    bits.push_back(static_cast<double>(runs[i].len) > threshold_samples ? 1 : 0);
  }
  return bits;
}

}  // namespace vab::phy
