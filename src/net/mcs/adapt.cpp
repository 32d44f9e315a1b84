#include "net/mcs/adapt.hpp"

#include <algorithm>
#include <limits>

namespace vab::net::mcs {

RateController::RateController(const McsLadder& ladder, AdaptConfig cfg)
    : ladder_(&ladder), cfg_(cfg) {
  sustain_snr_db_.reserve(ladder.size());
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    sustain_snr_db_.push_back(
        ladder.rung(r).snr_for_delivery(kTargetDelivery, kValidationFrameBits).raw());
  }
  rung_ = std::min(cfg_.start_rung, ladder.size() - 1);
  delivery_ewma_ = kTargetDelivery;
}

common::SnrDb RateController::down_threshold(std::size_t rung_index) const {
  if (rung_index == 0)
    return common::SnrDb{-std::numeric_limits<double>::infinity()};
  return common::SnrDb{sustain_snr_db_[rung_index]};
}

common::SnrDb RateController::up_threshold(std::size_t rung_index) const {
  if (rung_index + 1 >= sustain_snr_db_.size())
    return common::SnrDb{std::numeric_limits<double>::infinity()};
  return common::SnrDb{sustain_snr_db_[rung_index + 1] + kHysteresisDb};
}

int RateController::observe(std::optional<common::SnrDb> snr_ref, bool delivered) {
  ++polls_;
  if (snr_ref.has_value()) {
    if (snr_ewma_.has_value()) {
      *snr_ewma_ += kEwmaAlpha * (snr_ref->raw() - *snr_ewma_);
    } else {
      snr_ewma_ = snr_ref->raw();
    }
  }
  const double sample = delivered ? 1.0 : 0.0;
  if (have_outcome_) {
    delivery_ewma_ += kEwmaAlpha * (sample - delivery_ewma_);
  } else {
    delivery_ewma_ = sample;
    have_outcome_ = true;
  }
  return try_step();
}

int RateController::try_step() {
  if (cfg_.frozen) return 0;
  if (polls_ - polls_at_change_ < cfg_.min_dwell_polls) return 0;
  int dir = 0;
  if (snr_ewma_.has_value()) {
    if (*snr_ewma_ < down_threshold(rung_).raw()) {
      dir = -1;
    } else if (*snr_ewma_ > up_threshold(rung_).raw()) {
      dir = +1;
    }
  } else if (have_outcome_) {
    // Outcome path: the delivery EWMA stands in for a BER estimate.
    if (delivery_ewma_ < kOutcomeDownBelow && rung_ > 0) {
      dir = -1;
    } else if (delivery_ewma_ > kOutcomeUpAbove &&
               rung_ + 1 < ladder_->size()) {
      dir = +1;
    }
  }
  if (dir == 0) return 0;
  rung_ = static_cast<std::size_t>(static_cast<long>(rung_) + dir);
  polls_at_change_ = polls_;
  if (dir > 0) {
    ++steps_up_;
    // A just-promoted rung has no delivery history; seed the EWMA at the
    // target so one stale low sample cannot immediately bounce it back.
    if (!snr_ewma_.has_value()) delivery_ewma_ = kTargetDelivery;
  } else {
    ++steps_down_;
    if (!snr_ewma_.has_value()) delivery_ewma_ = kTargetDelivery;
  }
  return dir;
}

}  // namespace vab::net::mcs
