// Spatially partitioned acoustic medium: a uniform grid over node positions
// answering "which nodes sit within range r of point p" without an O(N)
// scan per query.
//
// Layout is CSR-style (cell offsets into one flat id array) so a 100k-node
// fleet costs two contiguous allocations, and ids inside a cell stay in
// ascending order (bucketing is a stable counting sort). Query results come
// out cell-major: cells row by row, ascending ids within each cell. That
// order is deterministic for a given grid but not globally ascending, so a
// consumer must not depend on it (the fleet's nearest-reader attach keeps
// per-node minima, which any visiting order reproduces).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace vab::sim::fleet {

/// Planar deployment coordinate (meters). Depth differences are folded into
/// the per-link scenario, not the partitioning.
struct Position {
  double x_m = 0.0;
  double y_m = 0.0;
};

double distance_m(const Position& a, const Position& b);

class SpatialGrid {
 public:
  /// Builds the partition over `points` with square cells of `cell_size`
  /// (values <= 0 fall back to 1 m). Degenerate inputs (no points, all
  /// points coincident) produce a 1x1 grid.
  SpatialGrid(std::vector<Position> points, common::Meters cell_size);

  /// Ids of all points within `radius` of `p` (inclusive), cell-major.
  void query(const Position& p, common::Meters radius,
             std::vector<std::uint32_t>& out) const;

  std::size_t size() const { return points_.size(); }
  const Position& position(std::uint32_t id) const { return points_[id]; }
  std::size_t cell_count() const { return nx_ * ny_; }

 private:
  std::size_t cell_of(const Position& p) const;

  std::vector<Position> points_;
  double cell_size_m_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::size_t> offsets_;    ///< cell -> start index in ids_
  std::vector<std::uint32_t> ids_;      ///< point ids bucketed by cell
};

}  // namespace vab::sim::fleet
