#include "client/datatype.h"

#include <algorithm>
#include <initializer_list>

namespace dpfs::client {

namespace {
/// Guard against pathological compositions in user code.
constexpr std::uint64_t kMaxExtents = 1ull << 22;  // ~4M extents

/// The extent count of a composition, the product of `factors`: refused
/// past kMaxExtents, and when the product does not fit in 64 bits. The
/// constructors' loops emit nothing when it is 0, so they skip them.
Result<std::uint64_t> CountFragments(
    std::initializer_list<std::uint64_t> factors) {
  if (std::find(factors.begin(), factors.end(), 0u) != factors.end()) {
    return 0;
  }
  std::uint64_t count = 1;
  for (const std::uint64_t factor : factors) {
    if (__builtin_mul_overflow(count, factor, &count) || count > kMaxExtents) {
      return ResourceExhaustedError("datatype too fragmented");
    }
  }
  return count;
}

/// A composition whose extent, and so some offset or end in it, does not
/// fit in 64 bits.
Status ExtentOverflowError() {
  return InvalidArgumentError("datatype extent does not fit in 64 bits");
}
}  // namespace

std::vector<ByteExtent> CoalesceExtents(std::vector<ByteExtent> extents) {
  std::sort(extents.begin(), extents.end(),
            [](const ByteExtent& a, const ByteExtent& b) {
              return a.offset < b.offset;
            });
  std::vector<ByteExtent> merged;
  for (const ByteExtent& extent : extents) {
    if (extent.length == 0) continue;
    if (!merged.empty() &&
        extent.offset <= merged.back().offset + merged.back().length) {
      const std::uint64_t end =
          std::max(merged.back().offset + merged.back().length,
                   extent.offset + extent.length);
      merged.back().length = end - merged.back().offset;
    } else {
      merged.push_back(extent);
    }
  }
  return merged;
}

Datatype Datatype::FromExtents(std::vector<ByteExtent> extents,
                               std::uint64_t logical_extent) {
  auto payload = std::make_shared<Payload>();
  payload->extents = CoalesceExtents(std::move(extents));
  for (const ByteExtent& extent : payload->extents) {
    payload->size += extent.length;
  }
  std::uint64_t span = 0;
  for (const ByteExtent& extent : payload->extents) {
    span = std::max(span, extent.offset + extent.length);
  }
  payload->extent = std::max(span, logical_extent);
  return Datatype(std::move(payload));
}

Datatype Datatype::Bytes(std::uint64_t n) {
  std::vector<ByteExtent> extents;
  if (n > 0) extents.push_back({0, n});
  return FromExtents(std::move(extents), n);
}

Result<Datatype> Datatype::Contiguous(std::uint64_t count,
                                      const Datatype& base) {
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t fragments,
                        CountFragments({count, base.num_extents()}));
  const std::uint64_t step = base.extent();
  // Every extent ends within the type's extent, so once that fits in 64
  // bits no offset below wraps; the same holds in each constructor.
  std::uint64_t span = 0;
  if (__builtin_mul_overflow(count, step, &span)) return ExtentOverflowError();
  std::vector<ByteExtent> extents;
  extents.reserve(fragments);
  for (std::uint64_t i = 0; fragments > 0 && i < count; ++i) {
    for (const ByteExtent& extent : base.extents()) {
      extents.push_back({i * step + extent.offset, extent.length});
    }
  }
  return FromExtents(std::move(extents), span);
}

Result<Datatype> Datatype::Vector(std::uint64_t count,
                                  std::uint64_t blocklength,
                                  std::uint64_t stride, const Datatype& base) {
  if (stride < blocklength) {
    return InvalidArgumentError(
        "vector stride must be >= blocklength (no overlap)");
  }
  DPFS_ASSIGN_OR_RETURN(
      const std::uint64_t fragments,
      CountFragments({count, blocklength, base.num_extents()}));
  const std::uint64_t step = base.extent();
  // Logical extent of a vector covers through the last block.
  std::uint64_t span = 0;
  if (count > 0 && (__builtin_mul_overflow(count - 1, stride, &span) ||
                    __builtin_add_overflow(span, blocklength, &span) ||
                    __builtin_mul_overflow(span, step, &span))) {
    return ExtentOverflowError();
  }
  std::vector<ByteExtent> extents;
  extents.reserve(fragments);
  for (std::uint64_t i = 0; fragments > 0 && i < count; ++i) {
    const std::uint64_t block_base = i * stride * step;
    for (std::uint64_t j = 0; j < blocklength; ++j) {
      for (const ByteExtent& extent : base.extents()) {
        extents.push_back({block_base + j * step + extent.offset,
                           extent.length});
      }
    }
  }
  return FromExtents(std::move(extents), span);
}

Result<Datatype> Datatype::Indexed(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks,
    const Datatype& base) {
  std::uint64_t total_blocks = 0;
  for (const auto& [displ, blocklen] : blocks) {
    if (__builtin_add_overflow(total_blocks, blocklen, &total_blocks)) {
      return ResourceExhaustedError("datatype too fragmented");
    }
  }
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t fragments,
                        CountFragments({total_blocks, base.num_extents()}));
  std::vector<ByteExtent> extents;
  extents.reserve(fragments);
  const std::uint64_t step = base.extent();
  std::uint64_t span = 0;
  for (const auto& [displ, blocklen] : blocks) {
    std::uint64_t end = 0;  // where the block's last base extent ends
    if (__builtin_add_overflow(displ, blocklen, &end) ||
        __builtin_mul_overflow(end, step, &end)) {
      return ExtentOverflowError();
    }
    for (std::uint64_t j = 0; fragments > 0 && j < blocklen; ++j) {
      for (const ByteExtent& extent : base.extents()) {
        extents.push_back({(displ + j) * step + extent.offset, extent.length});
      }
    }
    span = std::max(span, end);
  }
  return FromExtents(std::move(extents), span);
}

Result<Datatype> Datatype::Subarray(
    const std::vector<std::uint64_t>& array_shape,
    const std::vector<std::uint64_t>& lower,
    const std::vector<std::uint64_t>& extent, std::uint64_t element_bytes) {
  if (array_shape.empty() || array_shape.size() != lower.size() ||
      array_shape.size() != extent.size()) {
    return InvalidArgumentError("subarray: rank mismatch");
  }
  if (element_bytes == 0) {
    return InvalidArgumentError("subarray: element size must be >= 1");
  }
  std::uint64_t rows = 1;
  for (std::size_t d = 0; d < array_shape.size(); ++d) {
    // lower + extent <= shape, written so that the sum cannot wrap.
    if (extent[d] == 0 || extent[d] > array_shape[d] ||
        lower[d] > array_shape[d] - extent[d]) {
      return InvalidArgumentError("subarray: region out of bounds in dim " +
                                  std::to_string(d));
    }
    if (d + 1 < array_shape.size() &&
        __builtin_mul_overflow(rows, extent[d], &rows)) {
      return ResourceExhaustedError("subarray too fragmented");
    }
  }
  if (rows > kMaxExtents) {
    return ResourceExhaustedError("subarray too fragmented");
  }
  // The type's extent is the whole array; every row run lies inside it.
  std::uint64_t total = element_bytes;
  for (const std::uint64_t e : array_shape) {
    if (__builtin_mul_overflow(total, e, &total)) return ExtentOverflowError();
  }
  // One extent per row run of the region, offsets in the flattened array.
  std::vector<ByteExtent> extents;
  extents.reserve(rows);
  std::vector<std::uint64_t> cursor = lower;
  const std::size_t rank = array_shape.size();
  for (std::uint64_t row = 0; row < rows; ++row) {
    std::uint64_t offset = 0;
    for (std::size_t d = 0; d < rank; ++d) offset = offset * array_shape[d] + cursor[d];
    extents.push_back({offset * element_bytes,
                       extent[rank - 1] * element_bytes});
    // Odometer over dims [0, rank-1).
    for (std::size_t d = rank - 1; d-- > 0;) {
      if (++cursor[d] < lower[d] + extent[d]) break;
      cursor[d] = lower[d];
    }
  }
  return FromExtents(std::move(extents), total);
}

std::uint64_t Datatype::size() const noexcept { return payload_->size; }
std::uint64_t Datatype::extent() const noexcept { return payload_->extent; }
const std::vector<ByteExtent>& Datatype::extents() const noexcept {
  return payload_->extents;
}

}  // namespace dpfs::client
