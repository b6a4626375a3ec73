#include "layout/brick_map.h"

#include <algorithm>

#include "common/strings.h"

namespace dpfs::layout {

std::string_view FileLevelName(FileLevel level) noexcept {
  switch (level) {
    case FileLevel::kLinear: return "linear";
    case FileLevel::kMultidim: return "multidim";
    case FileLevel::kArray: return "array";
  }
  return "unknown";
}

Result<FileLevel> ParseFileLevel(std::string_view name) {
  if (EqualsIgnoreCase(name, "linear")) return FileLevel::kLinear;
  if (EqualsIgnoreCase(name, "multidim") ||
      EqualsIgnoreCase(name, "multidims")) {
    return FileLevel::kMultidim;
  }
  if (EqualsIgnoreCase(name, "array")) return FileLevel::kArray;
  return InvalidArgumentError("unknown file level '" + std::string(name) +
                              "'");
}

// ---------------------------------------------------------------------------
// Factories

namespace {

/// a * b, or kInvalidArgument naming `what` when the product overflows u64.
Result<std::uint64_t> CheckedMul(std::uint64_t a, std::uint64_t b,
                                 std::string_view what) {
  std::uint64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    return InvalidArgumentError(std::string(what) +
                                " does not fit in 64 bits");
  }
  return product;
}

/// NumElements(shape), or kInvalidArgument when it overflows u64.
Result<std::uint64_t> CheckedElements(const Shape& shape,
                                      std::string_view what) {
  std::uint64_t elements = 1;
  for (const std::uint64_t extent : shape) {
    DPFS_ASSIGN_OR_RETURN(elements, CheckedMul(elements, extent, what));
  }
  return elements;
}

/// Every brick slot of `num_bricks` bricks must be addressable: the last
/// one ends at num_bricks * brick_bytes.
Status CheckSlots(std::uint64_t num_bricks, std::uint64_t brick_bytes) {
  return CheckedMul(num_bricks, brick_bytes, "the file's brick slots")
      .status();
}

}  // namespace

Result<BrickMap> BrickMap::Linear(std::uint64_t total_bytes,
                                  std::uint64_t brick_bytes) {
  if (brick_bytes == 0) {
    return InvalidArgumentError("brick size must be >= 1 byte");
  }
  DPFS_RETURN_IF_ERROR(
      CheckSlots(CeilDiv(total_bytes, brick_bytes), brick_bytes));
  BrickMap map;
  map.level_ = FileLevel::kLinear;
  map.total_bytes_ = total_bytes;
  map.brick_bytes_ = brick_bytes;
  map.element_size_ = 1;
  return map;
}

Result<BrickMap> BrickMap::LinearArray(Shape array_shape,
                                       std::uint64_t element_size,
                                       std::uint64_t brick_bytes) {
  DPFS_RETURN_IF_ERROR(ValidateShape(array_shape));
  if (element_size == 0) return InvalidArgumentError("element size must be >= 1");
  if (brick_bytes == 0) return InvalidArgumentError("brick size must be >= 1");
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t elements,
                        CheckedElements(array_shape, "array element count"));
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t total_bytes,
                        CheckedMul(elements, element_size, "array size"));
  DPFS_RETURN_IF_ERROR(
      CheckSlots(CeilDiv(total_bytes, brick_bytes), brick_bytes));
  BrickMap map;
  map.level_ = FileLevel::kLinear;
  map.element_size_ = element_size;
  map.total_bytes_ = total_bytes;
  map.brick_bytes_ = brick_bytes;
  map.array_shape_ = std::move(array_shape);
  return map;
}

Result<BrickMap> BrickMap::Multidim(Shape array_shape, Shape brick_shape,
                                    std::uint64_t element_size) {
  DPFS_RETURN_IF_ERROR(ValidateShape(array_shape));
  DPFS_RETURN_IF_ERROR(ValidateShape(brick_shape));
  if (element_size == 0) return InvalidArgumentError("element size must be >= 1");
  if (array_shape.size() != brick_shape.size()) {
    return InvalidArgumentError("brick rank " +
                                std::to_string(brick_shape.size()) +
                                " does not match array rank " +
                                std::to_string(array_shape.size()));
  }
  for (std::size_t d = 0; d < array_shape.size(); ++d) {
    if (brick_shape[d] > array_shape[d]) {
      return InvalidArgumentError("brick extent exceeds array extent in dim " +
                                  std::to_string(d));
    }
  }
  BrickMap map;
  map.level_ = FileLevel::kMultidim;
  map.element_size_ = element_size;
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t elements,
                        CheckedElements(array_shape, "array element count"));
  DPFS_ASSIGN_OR_RETURN(map.total_bytes_,
                        CheckedMul(elements, element_size, "array size"));
  DPFS_ASSIGN_OR_RETURN(
      const std::uint64_t brick_elements,
      CheckedElements(brick_shape, "brick element count"));
  DPFS_ASSIGN_OR_RETURN(
      map.brick_bytes_, CheckedMul(brick_elements, element_size, "brick size"));
  map.brick_grid_.resize(array_shape.size());
  for (std::size_t d = 0; d < array_shape.size(); ++d) {
    map.brick_grid_[d] = CeilDiv(array_shape[d], brick_shape[d]);
  }
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t num_bricks,
                        CheckedElements(map.brick_grid_, "brick count"));
  DPFS_RETURN_IF_ERROR(CheckSlots(num_bricks, map.brick_bytes_));
  map.array_shape_ = std::move(array_shape);
  map.brick_shape_ = std::move(brick_shape);
  return map;
}

Result<BrickMap> BrickMap::Array(Shape array_shape, const HpfPattern& pattern,
                                 const ProcessGrid& grid,
                                 std::uint64_t element_size) {
  DPFS_RETURN_IF_ERROR(ValidateShape(array_shape));
  if (pattern.rank() != array_shape.size()) {
    return InvalidArgumentError("pattern rank does not match array rank");
  }
  if (grid.grid.size() != pattern.num_block_dims()) {
    return InvalidArgumentError(
        "process grid rank does not match BLOCK dimension count");
  }
  // Expand the grid over all dimensions (1 along kStar dims), then the array
  // level is a multidim map whose tile is exactly one chunk.
  Shape chunk_grid(array_shape.size(), 1);
  std::size_t block_dim = 0;
  for (std::size_t d = 0; d < array_shape.size(); ++d) {
    if (pattern.dims[d] == DimDist::kBlock) {
      chunk_grid[d] = grid.grid[block_dim++];
    }
  }
  Shape chunk_shape(array_shape.size());
  for (std::size_t d = 0; d < array_shape.size(); ++d) {
    if (array_shape[d] % chunk_grid[d] != 0) {
      return InvalidArgumentError(
          "array level requires dimension " + std::to_string(d) +
          " extent " + std::to_string(array_shape[d]) +
          " divisible by chunk grid " + std::to_string(chunk_grid[d]));
    }
    chunk_shape[d] = array_shape[d] / chunk_grid[d];
  }
  DPFS_ASSIGN_OR_RETURN(
      BrickMap map,
      Multidim(std::move(array_shape), std::move(chunk_shape), element_size));
  map.level_ = FileLevel::kArray;
  return map;
}

// ---------------------------------------------------------------------------
// Simple queries

std::uint64_t BrickMap::num_bricks() const noexcept {
  if (level_ == FileLevel::kLinear) {
    return total_bytes_ == 0 ? 0 : CeilDiv(total_bytes_, brick_bytes_);
  }
  return NumElements(brick_grid_);
}

std::uint64_t BrickMap::brick_valid_bytes(BrickId brick) const noexcept {
  if (level_ == FileLevel::kLinear) {
    const std::uint64_t start = brick * brick_bytes_;
    if (start >= total_bytes_) return 0;
    return std::min(brick_bytes_, total_bytes_ - start);
  }
  // Tiled: edge bricks cover a clipped tile.
  const Coords brick_coords = CoordsFromLinear(brick_grid_, brick);
  std::uint64_t elements = 1;
  for (std::size_t d = 0; d < array_shape_.size(); ++d) {
    const std::uint64_t lower = brick_coords[d] * brick_shape_[d];
    if (lower >= array_shape_[d]) return 0;
    elements *= std::min(brick_shape_[d], array_shape_[d] - lower);
  }
  return elements * element_size_;
}

std::uint64_t BrickMap::brick_fetch_bytes(BrickId brick) const noexcept {
  if (level_ == FileLevel::kLinear) return brick_valid_bytes(brick);
  return brick_valid_bytes(brick) == 0 ? 0 : brick_bytes_;
}

// ---------------------------------------------------------------------------
// Run enumeration

Status BrickMap::ForEachRun(
    const Region& region,
    const std::function<void(const BrickRun&)>& fn) const {
  if (!has_array_shape()) {
    return InvalidArgumentError(
        "region access requires an array-shaped file; use ForEachByteRun");
  }
  DPFS_RETURN_IF_ERROR(ValidateRegion(array_shape_, region));
  if (level_ == FileLevel::kLinear) return ForEachRunLinear(region, fn);
  return ForEachRunTiled(region, fn);
}

Status BrickMap::ForEachRunLinear(
    const Region& region,
    const std::function<void(const BrickRun&)>& fn) const {
  std::uint64_t buffer_offset = 0;
  ForEachRowRun(region, [&](const RowRun& row) {
    std::uint64_t offset =
        LinearIndex(array_shape_, row.start) * element_size_;
    std::uint64_t remaining = row.length * element_size_;
    while (remaining > 0) {
      const BrickId brick = offset / brick_bytes_;
      const std::uint64_t within = offset % brick_bytes_;
      const std::uint64_t take = std::min(brick_bytes_ - within, remaining);
      fn(BrickRun{brick, within, buffer_offset, take});
      offset += take;
      buffer_offset += take;
      remaining -= take;
    }
  });
  return Status::Ok();
}

Status BrickMap::ForEachRunTiled(
    const Region& region,
    const std::function<void(const BrickRun&)>& fn) const {
  const std::size_t rank = array_shape_.size();
  const std::uint64_t last_brick_extent = brick_shape_[rank - 1];
  std::uint64_t buffer_offset = 0;
  Coords brick_coords(rank);
  Coords local(rank);
  ForEachRowRun(region, [&](const RowRun& row) {
    // Split the run at brick boundaries along the last dimension.
    std::uint64_t col = row.start[rank - 1];
    std::uint64_t remaining = row.length;
    // Leading dims are fixed for the whole run.
    for (std::size_t d = 0; d + 1 < rank; ++d) {
      brick_coords[d] = row.start[d] / brick_shape_[d];
      local[d] = row.start[d] - brick_coords[d] * brick_shape_[d];
    }
    while (remaining > 0) {
      brick_coords[rank - 1] = col / last_brick_extent;
      local[rank - 1] = col - brick_coords[rank - 1] * last_brick_extent;
      const std::uint64_t take =
          std::min(last_brick_extent - local[rank - 1], remaining);
      const BrickId brick = LinearIndex(brick_grid_, brick_coords);
      const std::uint64_t offset_in_brick =
          LinearIndex(brick_shape_, local) * element_size_;
      fn(BrickRun{brick, offset_in_brick, buffer_offset,
                  take * element_size_});
      buffer_offset += take * element_size_;
      col += take;
      remaining -= take;
    }
  });
  return Status::Ok();
}

Status BrickMap::ForEachByteRun(
    std::uint64_t offset, std::uint64_t length,
    const std::function<void(const BrickRun&)>& fn) const {
  if (level_ != FileLevel::kLinear) {
    return InvalidArgumentError("byte-extent access requires a linear file");
  }
  std::uint64_t buffer_offset = 0;
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const BrickId brick = offset / brick_bytes_;
    const std::uint64_t within = offset % brick_bytes_;
    const std::uint64_t take = std::min(brick_bytes_ - within, remaining);
    fn(BrickRun{brick, within, buffer_offset, take});
    offset += take;
    buffer_offset += take;
    remaining -= take;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Summaries

Result<std::map<BrickId, BrickUsage>> BrickMap::SummarizeRegion(
    const Region& region) const {
  if (!has_array_shape()) {
    return InvalidArgumentError(
        "region access requires an array-shaped file; use SummarizeByteRange");
  }
  DPFS_RETURN_IF_ERROR(ValidateRegion(array_shape_, region));
  if (level_ == FileLevel::kLinear) return SummarizeLinearRegion(region);
  return SummarizeTiled(region);
}

Result<std::map<BrickId, BrickUsage>> BrickMap::SummarizeTiled(
    const Region& region) const {
  const std::size_t rank = array_shape_.size();
  // Bounding box of touched bricks per dimension.
  Coords first(rank);
  Coords last(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    first[d] = region.lower[d] / brick_shape_[d];
    last[d] = (region.lower[d] + region.extent[d] - 1) / brick_shape_[d];
  }
  std::map<BrickId, BrickUsage> out;
  Coords cursor = first;
  while (true) {
    // Intersection of the region with this brick's tile.
    Region tile;
    tile.lower.resize(rank);
    tile.extent.resize(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      tile.lower[d] = cursor[d] * brick_shape_[d];
      tile.extent[d] = brick_shape_[d];
    }
    const Region overlap = Intersect(region, tile);
    if (!overlap.empty()) {
      BrickUsage usage;
      usage.useful_bytes = overlap.num_elements() * element_size_;
      usage.num_runs = overlap.num_elements() / overlap.extent[rank - 1];
      // Runs are contiguous in brick space across dimension d's boundary iff
      // every dimension after d is fully covered; the coalesced fragment
      // count is the product of extents before the last partial dimension.
      std::size_t last_partial = rank;  // rank = "none partial"
      for (std::size_t d = rank; d-- > 0;) {
        if (overlap.extent[d] != brick_shape_[d]) {
          last_partial = d;
          break;
        }
      }
      usage.fragments = 1;
      if (last_partial != rank) {
        for (std::size_t d = 0; d < last_partial; ++d) {
          usage.fragments *= overlap.extent[d];
        }
      }
      out[LinearIndex(brick_grid_, cursor)] = usage;
    }
    // Odometer over the bounding box.
    std::size_t d = rank;
    while (d-- > 0) {
      if (++cursor[d] <= last[d]) break;
      cursor[d] = first[d];
      if (d == 0) return out;
    }
  }
}

Result<std::map<BrickId, BrickUsage>> BrickMap::SummarizeLinearRegion(
    const Region& region) const {
  std::map<BrickId, BrickUsage> out;
  // Row runs are produced in row-major order, so brick-local offsets only
  // grow; a new fragment starts whenever a run does not abut the previous
  // one in the same brick.
  std::map<BrickId, std::uint64_t> fragment_end;
  ForEachRowRun(region, [&](const RowRun& row) {
    std::uint64_t offset = LinearIndex(array_shape_, row.start) * element_size_;
    std::uint64_t remaining = row.length * element_size_;
    while (remaining > 0) {
      const BrickId brick = offset / brick_bytes_;
      const std::uint64_t within = offset % brick_bytes_;
      const std::uint64_t take = std::min(brick_bytes_ - within, remaining);
      BrickUsage& usage = out[brick];
      usage.useful_bytes += take;
      usage.num_runs += 1;
      const auto end_it = fragment_end.find(brick);
      if (end_it == fragment_end.end() || end_it->second != within) {
        usage.fragments += 1;
      }
      fragment_end[brick] = within + take;
      offset += take;
      remaining -= take;
    }
  });
  return out;
}

Result<std::map<BrickId, BrickUsage>> BrickMap::SummarizeByteRange(
    std::uint64_t offset, std::uint64_t length) const {
  if (level_ != FileLevel::kLinear) {
    return InvalidArgumentError("byte-extent access requires a linear file");
  }
  std::map<BrickId, BrickUsage> out;
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const BrickId brick = offset / brick_bytes_;
    const std::uint64_t within = offset % brick_bytes_;
    const std::uint64_t take = std::min(brick_bytes_ - within, remaining);
    BrickUsage& usage = out[brick];
    usage.useful_bytes += take;
    usage.num_runs += 1;
    usage.fragments += 1;  // one contiguous extent touches a brick once
    offset += take;
    remaining -= take;
  }
  return out;
}

}  // namespace dpfs::layout
