// N-dimensional array geometry.
//
// DPFS treats multidimensional and array-level files as row-major N-d element
// arrays. This header supplies the coordinate math everything else builds on:
// shapes, linearization, hyper-rectangular regions, and decomposition of a
// region into contiguous row runs (the unit of scatter/gather I/O).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpfs::layout {

/// Extent per dimension, row-major (last dimension contiguous). Rank ≥ 1.
using Shape = std::vector<std::uint64_t>;
/// A point, same rank as its Shape.
using Coords = std::vector<std::uint64_t>;

/// Product of extents (number of elements). Returns 0 for empty shapes.
std::uint64_t NumElements(const Shape& shape) noexcept;

/// Validates rank ≥ 1 and every extent ≥ 1.
Status ValidateShape(const Shape& shape);

/// Row-major linear index of `coords` within `shape`. Precondition: in range.
std::uint64_t LinearIndex(const Shape& shape, const Coords& coords) noexcept;

/// Inverse of LinearIndex.
Coords CoordsFromLinear(const Shape& shape, std::uint64_t index);

/// ceil(a / b) for b > 0, without overflow for any a.
constexpr std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) noexcept {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// An axis-aligned hyper-rectangle: [lower, lower + extent) per dimension.
struct Region {
  Coords lower;
  Shape extent;

  [[nodiscard]] std::size_t rank() const noexcept { return lower.size(); }
  [[nodiscard]] std::uint64_t num_elements() const noexcept {
    return NumElements(extent);
  }
  [[nodiscard]] bool empty() const noexcept { return num_elements() == 0; }
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Region&, const Region&) = default;
};

/// Validates `region` fits inside an array of `shape` (same rank, in bounds).
Status ValidateRegion(const Shape& shape, const Region& region);

/// Intersection of two regions of equal rank; empty extent when disjoint.
Region Intersect(const Region& a, const Region& b);

/// A maximal run of elements contiguous in the last dimension.
struct RowRun {
  Coords start;            // first element of the run (global coords)
  std::uint64_t length;    // elements, along the last dimension
};

/// Decomposes `region` into row runs in row-major order of their start
/// coordinates. The number of runs is region.num_elements() / extent.back().
std::vector<RowRun> RegionRowRuns(const Region& region);

/// Calls fn(run) for each row run without materializing the vector
/// (regions can contain millions of runs).
void ForEachRowRun(const Region& region,
                   const std::function<void(const RowRun&)>& fn);

}  // namespace dpfs::layout
