#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace vab::fault {

namespace {
// Fault accounting across all injectors: how much damage the plans did.
struct FaultMetrics {
  obs::Counter frames_dropped = obs::counter("fault.frames_dropped");
  obs::Counter frames_truncated = obs::counter("fault.frames_truncated");
  obs::Counter bits_flipped = obs::counter("fault.bits_flipped");
  obs::Counter replies_lost = obs::counter("fault.replies_lost");
  obs::Counter wake_misses = obs::counter("fault.wake_misses");
  obs::Counter dropouts = obs::counter("fault.dropouts");
  obs::Counter snr_dips = obs::counter("fault.snr_dips");

  static FaultMetrics& get() {
    static FaultMetrics* m = new FaultMetrics;  // leaked: read at exit
    return *m;
  }
};
}  // namespace

double GilbertElliottConfig::mean_loss() const {
  const double denom = p_good_to_bad + p_bad_to_good;
  if (denom <= 0.0) return loss_good;
  const double pi_bad = p_good_to_bad / denom;
  return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
}

bool FaultPlan::empty() const {
  return !burst.enabled() && frame_drop_prob == 0.0 && frame_truncate_prob == 0.0 &&
         bit_flip_prob == 0.0 && wake_miss_prob == 0.0 && dropout_prob == 0.0 &&
         clock_skew_rel == 0.0 && snr_dip_prob == 0.0;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), rng_(common::Rng::mix64(plan.seed ^ 0xFA017C0DEULL)) {}

bool FaultInjector::reply_lost() {
  if (!plan_.burst.enabled()) return false;
  // Step the chain, then sample loss in the (possibly new) state.
  if (ge_bad_) {
    if (rng_.coin(plan_.burst.p_bad_to_good)) ge_bad_ = false;
  } else {
    if (rng_.coin(plan_.burst.p_good_to_bad)) ge_bad_ = true;
  }
  const bool lost = rng_.coin(ge_bad_ ? plan_.burst.loss_bad : plan_.burst.loss_good);
  if (lost) FaultMetrics::get().replies_lost.inc();
  return lost;
}

FrameFate FaultInjector::corrupt_frame(bytes& wire) {
  if (plan_.frame_drop_prob > 0.0 && rng_.coin(plan_.frame_drop_prob)) {
    FaultMetrics::get().frames_dropped.inc();
    return FrameFate::kDropped;
  }
  if (plan_.frame_truncate_prob > 0.0 && rng_.coin(plan_.frame_truncate_prob) &&
      wire.size() > 1) {
    const auto keep = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
    wire.resize(keep);
    FaultMetrics::get().frames_truncated.inc();
    return FrameFate::kTruncated;
  }
  if (plan_.bit_flip_prob > 0.0 && rng_.coin(plan_.bit_flip_prob) && !wire.empty()) {
    // Distinct bit positions: a repeated XOR would cancel and silently yield
    // an intact frame labelled corrupted.
    const std::size_t total_bits = wire.size() * 8;
    const std::size_t flips =
        std::min(std::max<std::size_t>(plan_.bit_flip_count, 1), total_bits);
    std::vector<std::size_t> chosen;
    chosen.reserve(flips);
    while (chosen.size() < flips) {
      const auto bit = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(total_bits) - 1));
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
      chosen.push_back(bit);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    FaultMetrics::get().bits_flipped.add(flips);
    return FrameFate::kCorrupted;
  }
  return FrameFate::kIntact;
}

bool FaultInjector::wake_missed() {
  if (plan_.wake_miss_prob <= 0.0) return false;
  const bool missed = rng_.coin(plan_.wake_miss_prob);
  if (missed) FaultMetrics::get().wake_misses.inc();
  return missed;
}

bool FaultInjector::dropped_out() {
  if (plan_.dropout_prob <= 0.0) return false;
  const bool out = rng_.coin(plan_.dropout_prob);
  if (out) FaultMetrics::get().dropouts.inc();
  return out;
}

double FaultInjector::clock_skew_s(double slot_s) {
  if (plan_.clock_skew_rel <= 0.0) return 0.0;
  return rng_.uniform(-plan_.clock_skew_rel, plan_.clock_skew_rel) * slot_s;
}

std::optional<SnrDip> FaultInjector::draw_snr_dip(std::size_t n) {
  if (plan_.snr_dip_prob <= 0.0 || n == 0) return std::nullopt;
  if (!rng_.coin(plan_.snr_dip_prob)) return std::nullopt;
  VAB_SPAN("fault.snr_dip");
  const double frac = std::clamp(plan_.snr_dip_duration_frac, 0.0, 1.0);
  SnrDip dip;
  dip.len =
      std::max<std::size_t>(1, static_cast<std::size_t>(frac * static_cast<double>(n)));
  dip.start = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(n - dip.len)));
  dip.gain = std::pow(10.0, -plan_.snr_dip_db / 20.0);
  FaultMetrics::get().snr_dips.inc();
  return dip;
}

bool FaultInjector::apply_snr_dip(rvec& samples) {
  const auto dip = draw_snr_dip(samples.size());
  if (!dip) return false;
  for (std::size_t i = dip->start; i < dip->start + dip->len; ++i)
    samples[i] *= dip->gain;
  return true;
}

}  // namespace vab::fault
