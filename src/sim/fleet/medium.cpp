#include "sim/fleet/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vab::sim::fleet {

double distance_m(const Position& a, const Position& b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

SpatialGrid::SpatialGrid(std::vector<Position> points, common::Meters cell_size)
    : points_(std::move(points)),
      cell_size_m_(cell_size.raw() > 0.0 ? cell_size.raw() : 1.0) {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  if (!points_.empty()) {
    min_x = max_x = points_.front().x_m;
    min_y = max_y = points_.front().y_m;
    for (const Position& p : points_) {
      min_x = std::min(min_x, p.x_m);
      max_x = std::max(max_x, p.x_m);
      min_y = std::min(min_y, p.y_m);
      max_y = std::max(max_y, p.y_m);
    }
  }
  min_x_ = min_x;
  min_y_ = min_y;
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor((max_x - min_x) / cell_size_m_)) + 1);
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor((max_y - min_y) / cell_size_m_)) + 1);

  // Stable counting sort into CSR: two passes, ids within a cell ascend.
  std::vector<std::size_t> counts(nx_ * ny_ + 1, 0);
  for (const Position& p : points_) ++counts[cell_of(p) + 1];
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  offsets_ = counts;
  ids_.resize(points_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t id = 0; id < points_.size(); ++id)
    ids_[cursor[cell_of(points_[id])]++] = id;
}

std::size_t SpatialGrid::cell_of(const Position& p) const {
  const auto clamp_idx = [](double v, std::size_t n) {
    if (!(v > 0.0)) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t cx = clamp_idx((p.x_m - min_x_) / cell_size_m_, nx_);
  const std::size_t cy = clamp_idx((p.y_m - min_y_) / cell_size_m_, ny_);
  return cy * nx_ + cx;
}

void SpatialGrid::query(const Position& p, common::Meters radius,
                        std::vector<std::uint32_t>& out) const {
  const double radius_m = radius.raw();
  out.clear();
  if (points_.empty() || !(radius_m >= 0.0)) return;
  const auto cell_range = [&](double v, double mn, std::size_t n) {
    const double lo = (v - radius_m - mn) / cell_size_m_;
    const double hi = (v + radius_m - mn) / cell_size_m_;
    const std::size_t lo_i =
        lo > 0.0 ? std::min(static_cast<std::size_t>(lo), n - 1) : 0;
    const std::size_t hi_i =
        hi > 0.0 ? std::min(static_cast<std::size_t>(hi), n - 1) : 0;
    return std::pair<std::size_t, std::size_t>{lo_i, hi_i};
  };
  const auto [cx0, cx1] = cell_range(p.x_m, min_x_, nx_);
  const auto [cy0, cy1] = cell_range(p.y_m, min_y_, ny_);
  for (std::size_t cy = cy0; cy <= cy1; ++cy) {
    for (std::size_t cx = cx0; cx <= cx1; ++cx) {
      const std::size_t c = cy * nx_ + cx;
      for (std::size_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
        const std::uint32_t id = ids_[k];
        if (distance_m(points_[id], p) <= radius_m) out.push_back(id);
      }
    }
  }
}

}  // namespace vab::sim::fleet
