// BrickMap: the striping geometry of one DPFS file.
//
// A DPFS file is a sequence of bricks numbered 0..num_bricks-1 (§3 of the
// paper). The file level decides the brick shape:
//   * Linear     — a brick is `brick_bytes` contiguous bytes of the
//                  row-major flattened file (Fig 4).
//   * Multidim   — a brick is an N-d tile `brick_shape` of elements (Fig 6).
//   * Array      — a brick is one HPF chunk, i.e. a tile of shape
//                  array_shape / chunk_grid (Fig 7). Internally an array
//                  file is a multidim file whose tile equals the chunk.
//
// BrickMap answers: how many bricks, how big, and — for a requested region
// or byte extent — which bricks are touched, how many bytes of each brick
// are useful, and the exact brick-local byte runs needed to gather/scatter
// the caller's buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "layout/geometry.h"
#include "layout/hpf.h"

namespace dpfs::layout {

using BrickId = std::uint64_t;

enum class FileLevel : std::uint8_t { kLinear = 0, kMultidim = 1, kArray = 2 };

std::string_view FileLevelName(FileLevel level) noexcept;
Result<FileLevel> ParseFileLevel(std::string_view name);

/// One contiguous byte run inside one brick, paired with where those bytes
/// live in the caller's packed region buffer. The unit of gather/scatter.
struct BrickRun {
  BrickId brick = 0;
  std::uint64_t offset_in_brick = 0;  // bytes from the brick's start
  std::uint64_t buffer_offset = 0;    // bytes into the packed region buffer
  std::uint64_t length = 0;           // bytes

  friend bool operator==(const BrickRun&, const BrickRun&) = default;
};

/// Per-brick usage summary for planning and simulation.
struct BrickUsage {
  std::uint64_t useful_bytes = 0;  // bytes of this brick the caller needs
  std::uint64_t num_runs = 0;      // row runs (buffer-side scatter/gather)
  /// Contiguous pieces in *brick* space after coalescing adjacent runs —
  /// the fragment count a write (or sieve read) actually sends. A fully
  /// covered brick is one fragment even though it has many buffer runs.
  std::uint64_t fragments = 0;
};

class BrickMap {
 public:
  /// A default BrickMap is an empty linear file; use the factories below.
  /// Each factory refuses with kInvalidArgument a geometry whose element
  /// count, byte size, brick size, brick count or brick slots (num_bricks
  /// x brick_bytes) do not fit in 64 bits.
  BrickMap() = default;

  /// Linear level over a raw byte stream (Fig 4). `total_bytes` may be 0 for
  /// a file about to be written. When the linear file logically holds a
  /// row-major array, pass its shape/element size so region access works
  /// (Fig 5's workload); otherwise use the byte-extent APIs.
  static Result<BrickMap> Linear(std::uint64_t total_bytes,
                                 std::uint64_t brick_bytes);
  static Result<BrickMap> LinearArray(Shape array_shape,
                                      std::uint64_t element_size,
                                      std::uint64_t brick_bytes);

  /// Multidimensional level (Fig 6): brick_shape tiles array_shape. Edge
  /// bricks are padded on disk to the full brick size, so every brick slot
  /// has identical extent.
  static Result<BrickMap> Multidim(Shape array_shape, Shape brick_shape,
                                   std::uint64_t element_size);

  /// Array level (Fig 7): one brick per HPF chunk. Requires each BLOCK
  /// dimension divisible by the grid extent.
  static Result<BrickMap> Array(Shape array_shape, const HpfPattern& pattern,
                                const ProcessGrid& grid,
                                std::uint64_t element_size);

  [[nodiscard]] FileLevel level() const noexcept { return level_; }
  [[nodiscard]] std::uint64_t num_bricks() const noexcept;
  /// Bytes in a full brick slot (uniform across bricks; the final linear
  /// brick may hold fewer valid bytes, see brick_valid_bytes).
  [[nodiscard]] std::uint64_t brick_bytes() const noexcept {
    return brick_bytes_;
  }
  /// Valid payload bytes in `brick` (== brick_bytes() except the linear
  /// tail brick and padded edge bricks of multidim files).
  [[nodiscard]] std::uint64_t brick_valid_bytes(BrickId brick) const noexcept;
  /// Bytes a whole-brick READ must fetch to cover every valid element. For
  /// linear files valid data is contiguous from the slot start, so this is
  /// brick_valid_bytes; for tiled files a clipped edge tile keeps elements
  /// at their full-tile row-major offsets (with holes), so the full slot is
  /// fetched and the holes read back as zeroes.
  [[nodiscard]] std::uint64_t brick_fetch_bytes(BrickId brick) const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  [[nodiscard]] std::uint64_t element_size() const noexcept {
    return element_size_;
  }
  [[nodiscard]] const Shape& array_shape() const noexcept {
    return array_shape_;
  }
  /// Brick tile shape in elements (multidim/array only).
  [[nodiscard]] const Shape& brick_shape() const noexcept {
    return brick_shape_;
  }
  /// Shape of the brick grid (multidim/array only).
  [[nodiscard]] const Shape& brick_grid() const noexcept {
    return brick_grid_;
  }
  [[nodiscard]] bool has_array_shape() const noexcept {
    return !array_shape_.empty();
  }

  /// Enumerates gather/scatter runs for an element region, in buffer order
  /// (row-major over the region). Error if the map has no array shape or the
  /// region is out of bounds.
  Status ForEachRun(const Region& region,
                    const std::function<void(const BrickRun&)>& fn) const;

  /// Enumerates runs for a raw byte extent (linear level only).
  Status ForEachByteRun(std::uint64_t offset, std::uint64_t length,
                        const std::function<void(const BrickRun&)>& fn) const;

  /// Per-brick usage for an element region. For multidim/array this is
  /// computed analytically per touched brick (no run enumeration), so it is
  /// cheap even for paper-scale arrays (64K x 64K).
  Result<std::map<BrickId, BrickUsage>> SummarizeRegion(
      const Region& region) const;

  /// Per-brick usage for a raw byte extent (linear level only).
  Result<std::map<BrickId, BrickUsage>> SummarizeByteRange(
      std::uint64_t offset, std::uint64_t length) const;

 private:
  Status ForEachRunLinear(const Region& region,
                          const std::function<void(const BrickRun&)>& fn) const;
  Status ForEachRunTiled(const Region& region,
                         const std::function<void(const BrickRun&)>& fn) const;
  Result<std::map<BrickId, BrickUsage>> SummarizeTiled(
      const Region& region) const;
  Result<std::map<BrickId, BrickUsage>> SummarizeLinearRegion(
      const Region& region) const;

  FileLevel level_ = FileLevel::kLinear;
  std::uint64_t element_size_ = 1;
  std::uint64_t total_bytes_ = 0;   // valid payload bytes of the whole file
  std::uint64_t brick_bytes_ = 0;   // full brick slot size
  Shape array_shape_;               // empty for raw linear streams
  Shape brick_shape_;               // multidim/array tile (elements)
  Shape brick_grid_;                // bricks per dimension (multidim/array)
};

}  // namespace dpfs::layout
