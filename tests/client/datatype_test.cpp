#include "client/datatype.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace dpfs::client {
namespace {

TEST(DatatypeTest, Bytes) {
  const Datatype type = Datatype::Bytes(16);
  EXPECT_EQ(type.size(), 16u);
  EXPECT_EQ(type.extent(), 16u);
  ASSERT_EQ(type.num_extents(), 1u);
  EXPECT_EQ(type.extents()[0], (ByteExtent{0, 16}));
}

TEST(DatatypeTest, ZeroBytes) {
  const Datatype type = Datatype::Bytes(0);
  EXPECT_EQ(type.size(), 0u);
  EXPECT_EQ(type.num_extents(), 0u);
}

TEST(DatatypeTest, ContiguousCoalescesToOneExtent) {
  const Datatype type = Datatype::Contiguous(4, Datatype::Bytes(8)).value();
  EXPECT_EQ(type.size(), 32u);
  EXPECT_EQ(type.extent(), 32u);
  EXPECT_EQ(type.num_extents(), 1u);
}

TEST(DatatypeTest, VectorBasics) {
  // 3 blocks of 2 elements, stride 4, element = 8 bytes:
  // extents at 0, 32, 64; each 16 bytes.
  const Datatype type =
      Datatype::Vector(3, 2, 4, Datatype::Bytes(8)).value();
  EXPECT_EQ(type.size(), 48u);
  ASSERT_EQ(type.num_extents(), 3u);
  EXPECT_EQ(type.extents()[0], (ByteExtent{0, 16}));
  EXPECT_EQ(type.extents()[1], (ByteExtent{32, 16}));
  EXPECT_EQ(type.extents()[2], (ByteExtent{64, 16}));
  EXPECT_EQ(type.extent(), 80u);  // (2*4 + 2) * 8
}

TEST(DatatypeTest, VectorStrideEqualBlocklengthIsContiguous) {
  const Datatype type =
      Datatype::Vector(5, 3, 3, Datatype::Bytes(4)).value();
  EXPECT_EQ(type.num_extents(), 1u);
  EXPECT_EQ(type.size(), 60u);
}

TEST(DatatypeTest, VectorOverlapRejected) {
  EXPECT_FALSE(Datatype::Vector(2, 4, 3, Datatype::Bytes(1)).ok());
}

TEST(DatatypeTest, ColumnOfMatrixAsVector) {
  // One column of an 8x8 byte matrix: 8 single-byte blocks with stride 8.
  const Datatype column =
      Datatype::Vector(8, 1, 8, Datatype::Bytes(1)).value();
  EXPECT_EQ(column.size(), 8u);
  EXPECT_EQ(column.num_extents(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(column.extents()[i].offset, i * 8);
    EXPECT_EQ(column.extents()[i].length, 1u);
  }
}

TEST(DatatypeTest, Indexed) {
  const Datatype type =
      Datatype::Indexed({{0, 2}, {5, 1}, {10, 3}}, Datatype::Bytes(4)).value();
  EXPECT_EQ(type.size(), 24u);
  ASSERT_EQ(type.num_extents(), 3u);
  EXPECT_EQ(type.extents()[0], (ByteExtent{0, 8}));
  EXPECT_EQ(type.extents()[1], (ByteExtent{20, 4}));
  EXPECT_EQ(type.extents()[2], (ByteExtent{40, 12}));
  EXPECT_EQ(type.extent(), 52u);
}

TEST(DatatypeTest, IndexedAdjacentBlocksCoalesce) {
  const Datatype type =
      Datatype::Indexed({{0, 2}, {2, 3}}, Datatype::Bytes(1)).value();
  EXPECT_EQ(type.num_extents(), 1u);
  EXPECT_EQ(type.size(), 5u);
}

TEST(DatatypeTest, IndexedZeroLengthBlocksContributeNoExtents) {
  const Datatype type =
      Datatype::Indexed({{0, 2}, {5, 0}, {10, 1}}, Datatype::Bytes(4)).value();
  EXPECT_EQ(type.size(), 12u);
  ASSERT_EQ(type.num_extents(), 2u);
  EXPECT_EQ(type.extents()[0], (ByteExtent{0, 8}));
  EXPECT_EQ(type.extents()[1], (ByteExtent{40, 4}));
  EXPECT_EQ(type.extent(), 44u);
}

TEST(DatatypeTest, IndexedOutOfOrderBlocksFlattenSorted) {
  // Flattening sorts by file offset, so planner input (and the wire's
  // strictly-ascending extent lists) never see out-of-order extents.
  const Datatype type =
      Datatype::Indexed({{10, 1}, {0, 1}}, Datatype::Bytes(4)).value();
  EXPECT_EQ(type.size(), 8u);
  ASSERT_EQ(type.num_extents(), 2u);
  EXPECT_EQ(type.extents()[0], (ByteExtent{0, 4}));
  EXPECT_EQ(type.extents()[1], (ByteExtent{40, 4}));
}

TEST(DatatypeTest, NestedComposition) {
  // Vector of vectors: a 2-d tile access pattern.
  const Datatype row = Datatype::Bytes(4);
  const Datatype tile_rows = Datatype::Vector(3, 1, 2, row).value();
  const Datatype type = Datatype::Contiguous(2, tile_rows).value();
  EXPECT_EQ(type.size(), 24u);
  // tile_rows extent: (2*2+1)*4 = 20; the second copy starts at 20, which is
  // adjacent to the first copy's last extent [16,20) — they coalesce, so the
  // six raw pieces merge into five.
  EXPECT_EQ(type.num_extents(), 5u);
}

TEST(DatatypeTest, FragmentationGuard) {
  const Datatype tiny = Datatype::Bytes(1);
  const Datatype v = Datatype::Vector(1 << 20, 1, 2, tiny).value();
  EXPECT_FALSE(Datatype::Contiguous(1 << 12, v).ok());
}

TEST(DatatypeTest, SubarrayBasics) {
  // 3x4 interior region of an 8x10 array of 4-byte elements.
  const Datatype type =
      Datatype::Subarray({8, 10}, {2, 3}, {3, 4}, 4).value();
  EXPECT_EQ(type.size(), 3u * 4 * 4);
  EXPECT_EQ(type.extent(), 8u * 10 * 4);  // spans the whole array
  ASSERT_EQ(type.num_extents(), 3u);      // one per region row
  EXPECT_EQ(type.extents()[0], (ByteExtent{(2 * 10 + 3) * 4, 16}));
  EXPECT_EQ(type.extents()[1], (ByteExtent{(3 * 10 + 3) * 4, 16}));
  EXPECT_EQ(type.extents()[2], (ByteExtent{(4 * 10 + 3) * 4, 16}));
}

TEST(DatatypeTest, SubarrayFullRowsCoalesce) {
  // Full-width rows are contiguous in the flattened array.
  const Datatype type = Datatype::Subarray({8, 10}, {2, 0}, {3, 10}, 1).value();
  EXPECT_EQ(type.num_extents(), 1u);
  EXPECT_EQ(type.size(), 30u);
}

TEST(DatatypeTest, SubarrayThreeDimensional) {
  const Datatype type =
      Datatype::Subarray({4, 4, 4}, {1, 1, 1}, {2, 2, 2}, 1).value();
  EXPECT_EQ(type.size(), 8u);
  EXPECT_EQ(type.num_extents(), 4u);  // 2x2 leading rows
  EXPECT_EQ(type.extents()[0].offset, (1 * 16 + 1 * 4 + 1) * 1u);
}

TEST(DatatypeTest, SubarrayValidation) {
  EXPECT_FALSE(Datatype::Subarray({8}, {0, 0}, {1, 1}, 1).ok());   // rank
  EXPECT_FALSE(Datatype::Subarray({8, 8}, {0, 0}, {9, 1}, 1).ok());  // bounds
  EXPECT_FALSE(Datatype::Subarray({8, 8}, {4, 4}, {5, 1}, 1).ok());  // bounds
  EXPECT_FALSE(Datatype::Subarray({8, 8}, {0, 0}, {0, 1}, 1).ok());  // empty
  EXPECT_FALSE(Datatype::Subarray({8, 8}, {0, 0}, {1, 1}, 0).ok());  // elem
}

// Compositions past 64 bits. A guard count that wrapped would let a
// constructor loop about 2^64 times; an offset that wrapped would put the
// type's bytes outside the extent it reports. The count is refused with
// kResourceExhausted, the offset or end with kInvalidArgument.
Datatype FourExtents() {
  return Datatype::Vector(4, 1, 2, Datatype::Bytes(1)).value();
}

TEST(DatatypeTest, ContiguousRefusesACountPast64Bits) {
  // 2^62 copies of a four-extent base: 2^64 extents, 0 once wrapped.
  EXPECT_EQ(Datatype::Contiguous(1ull << 62, FourExtents()).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DatatypeTest, ContiguousRefusesAnExtentPast64Bits) {
  // The second copy of a 2^63-byte base would end at 2^64.
  EXPECT_EQ(
      Datatype::Contiguous(2, Datatype::Bytes(1ull << 63)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DatatypeTest, VectorRefusesACountPast64Bits) {
  // 2^32 blocks of 2^32 one-byte elements: the extent count wraps to 0.
  EXPECT_EQ(Datatype::Vector(1ull << 32, 1ull << 32, 1ull << 32,
                             Datatype::Bytes(1))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(DatatypeTest, VectorRefusesAnOffsetPast64Bits) {
  // The second block would start 2^63 strides of 2 bytes in, at 2^64,
  // which wraps onto the first block.
  EXPECT_EQ(
      Datatype::Vector(2, 1, 1ull << 63, Datatype::Bytes(2)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DatatypeTest, IndexedRefusesACountPast64Bits) {
  // Two blocks of 2^63 elements: the block total wraps to 0.
  EXPECT_EQ(Datatype::Indexed({{0, 1ull << 63}, {1ull << 63, 1ull << 63}},
                              Datatype::Bytes(1))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  // 2^62 elements of a four-extent base: 2^64 extents.
  EXPECT_EQ(Datatype::Indexed({{0, 1ull << 62}}, FourExtents()).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DatatypeTest, IndexedRefusesAnOffsetPast64Bits) {
  // A block at displacement 2^63 of a 2-byte base would start at 2^64.
  EXPECT_EQ(
      Datatype::Indexed({{1ull << 63, 1}}, Datatype::Bytes(2)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DatatypeTest, SubarrayRefusesARowCountPast64Bits) {
  // 2^32 x 2^32 rows of one element: the row count wraps to 0.
  EXPECT_EQ(Datatype::Subarray({1ull << 32, 1ull << 32, 1}, {0, 0, 0},
                               {1ull << 32, 1ull << 32, 1}, 1)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(DatatypeTest, SubarrayRefusesAnOffsetPast64Bits) {
  // lower + extent wraps to 1, inside the array, and the region would
  // start at byte 2^64 - 1.
  EXPECT_EQ(Datatype::Subarray({4}, {UINT64_MAX}, {2}, 1).status().code(),
            StatusCode::kInvalidArgument);
  // An array of 2^62 x 8 one-byte elements ends at 2^65.
  EXPECT_EQ(
      Datatype::Subarray({1ull << 62, 8}, {0, 0}, {1, 8}, 1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DatatypeTest, EmptyCompositionsReturnAtOnce) {
  // No extents at all: the constructors skip their loops instead of
  // counting 2^62 empty blocks.
  const Datatype vector =
      Datatype::Vector(1ull << 62, 0, 0, Datatype::Bytes(1)).value();
  EXPECT_EQ(vector.size(), 0u);
  EXPECT_EQ(vector.extent(), 0u);
  const Datatype indexed =
      Datatype::Indexed({{0, 1ull << 62}}, Datatype::Bytes(0)).value();
  EXPECT_EQ(indexed.size(), 0u);
  EXPECT_EQ(indexed.num_extents(), 0u);
}

TEST(CoalesceExtentsTest, SortsAndMerges) {
  const std::vector<ByteExtent> merged = CoalesceExtents({
      {10, 5},
      {0, 4},
      {4, 6},   // adjacent to {0,4}, overlaps {10,5}? touches at 10
      {30, 2},
  });
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (ByteExtent{0, 15}));
  EXPECT_EQ(merged[1], (ByteExtent{30, 2}));
}

TEST(CoalesceExtentsTest, DropsEmptyExtents) {
  const std::vector<ByteExtent> merged =
      CoalesceExtents({{5, 0}, {1, 2}, {9, 0}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (ByteExtent{1, 2}));
}

TEST(CoalesceExtentsTest, OverlappingExtentsMergeToUnion) {
  const std::vector<ByteExtent> merged = CoalesceExtents({{0, 10}, {5, 10}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (ByteExtent{0, 15}));
}

}  // namespace
}  // namespace dpfs::client
