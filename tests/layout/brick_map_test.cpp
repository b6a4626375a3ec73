#include "layout/brick_map.h"

#include <gtest/gtest.h>

#include <numeric>

namespace dpfs::layout {
namespace {

TEST(FileLevelTest, NamesRoundTrip) {
  EXPECT_EQ(ParseFileLevel("linear").value(), FileLevel::kLinear);
  EXPECT_EQ(ParseFileLevel("multidim").value(), FileLevel::kMultidim);
  EXPECT_EQ(ParseFileLevel("multidims").value(), FileLevel::kMultidim);
  EXPECT_EQ(ParseFileLevel("ARRAY").value(), FileLevel::kArray);
  EXPECT_FALSE(ParseFileLevel("bogus").ok());
  EXPECT_EQ(FileLevelName(FileLevel::kLinear), "linear");
}

// --- Linear -----------------------------------------------------------------

TEST(LinearMapTest, BrickCountCeil) {
  EXPECT_EQ(BrickMap::Linear(100, 32).value().num_bricks(), 4u);
  EXPECT_EQ(BrickMap::Linear(96, 32).value().num_bricks(), 3u);
  EXPECT_EQ(BrickMap::Linear(0, 32).value().num_bricks(), 0u);
  EXPECT_EQ(BrickMap::Linear(1, 32).value().num_bricks(), 1u);
}

TEST(LinearMapTest, RejectsZeroBrick) {
  EXPECT_FALSE(BrickMap::Linear(100, 0).ok());
}

TEST(LinearMapTest, RejectsBrickSlotsPast64Bits) {
  // UINT64_MAX bytes in 3-byte bricks end exactly at 2^64 - 1; in 2^63-byte
  // bricks the second slot would end at 2^64.
  constexpr std::uint64_t kMax = UINT64_MAX;
  EXPECT_EQ(BrickMap::Linear(kMax, 3).value().num_bricks(), kMax / 3);
  EXPECT_EQ(BrickMap::Linear(kMax, std::uint64_t{1} << 63).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearMapTest, ArrayShapeOverflowRejected) {
  // 2^33 x 2^33 elements, or 2^60 elements of 32 bytes: neither the element
  // count nor the byte size fits in 64 bits.
  const std::uint64_t big = std::uint64_t{1} << 33;
  EXPECT_EQ(BrickMap::LinearArray({big, big}, 1, 64).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BrickMap::LinearArray({std::uint64_t{1} << 60}, 32, 64).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(BrickMap::LinearArray({big, 1}, 8, 64).ok());
}

TEST(LinearMapTest, TailBrickValidBytes) {
  const BrickMap map = BrickMap::Linear(100, 32).value();
  EXPECT_EQ(map.brick_valid_bytes(0), 32u);
  EXPECT_EQ(map.brick_valid_bytes(2), 32u);
  EXPECT_EQ(map.brick_valid_bytes(3), 4u);   // 100 - 96
  EXPECT_EQ(map.brick_valid_bytes(4), 0u);   // past EOF
}

TEST(LinearMapTest, ByteRunSplitsAtBrickBoundaries) {
  const BrickMap map = BrickMap::Linear(100, 32).value();
  std::vector<BrickRun> runs;
  ASSERT_TRUE(map.ForEachByteRun(30, 40, [&](const BrickRun& run) {
    runs.push_back(run);
  }).ok());
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (BrickRun{0, 30, 0, 2}));
  EXPECT_EQ(runs[1], (BrickRun{1, 0, 2, 32}));
  EXPECT_EQ(runs[2], (BrickRun{2, 0, 34, 6}));
}

TEST(LinearMapTest, ByteSummary) {
  const BrickMap map = BrickMap::Linear(100, 32).value();
  const auto usage = map.SummarizeByteRange(30, 40).value();
  ASSERT_EQ(usage.size(), 3u);
  EXPECT_EQ(usage.at(0).useful_bytes, 2u);
  EXPECT_EQ(usage.at(1).useful_bytes, 32u);
  EXPECT_EQ(usage.at(2).useful_bytes, 6u);
}

TEST(LinearMapTest, RegionAccessRequiresArrayShape) {
  const BrickMap map = BrickMap::Linear(100, 32).value();
  const Region region{{0}, {10}};
  EXPECT_FALSE(map.ForEachRun(region, [](const BrickRun&) {}).ok());
  EXPECT_FALSE(map.SummarizeRegion(region).ok());
}

TEST(LinearMapTest, ByteAccessOnTiledMapRejected) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  EXPECT_FALSE(map.ForEachByteRun(0, 8, [](const BrickRun&) {}).ok());
  EXPECT_FALSE(map.SummarizeByteRange(0, 8).ok());
}

// --- Paper Fig 5: linear striping of an 8x8 array, brick = 4 elements -------

class Fig5LinearTest : public ::testing::Test {
 protected:
  Fig5LinearTest()
      : map_(BrickMap::LinearArray({8, 8}, 1, 4).value()) {}
  BrickMap map_;
};

TEST_F(Fig5LinearTest, SixteenBricks) { EXPECT_EQ(map_.num_bricks(), 16u); }

TEST_F(Fig5LinearTest, BrickZeroHoldsElements0To3) {
  // "Brick 0 contains array elements 0, 1, 2 and 3."
  const auto usage = map_.SummarizeRegion({{0, 0}, {1, 4}}).value();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage.begin()->first, 0u);
  EXPECT_EQ(usage.begin()->second.useful_bytes, 4u);
}

TEST_F(Fig5LinearTest, RowAccessTouchesTwoBricks) {
  // (BLOCK,*): one row = 8 elements = bricks 2r and 2r+1.
  const auto usage = map_.SummarizeRegion({{3, 0}, {1, 8}}).value();
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_TRUE(usage.contains(6));
  EXPECT_TRUE(usage.contains(7));
}

TEST_F(Fig5LinearTest, TwoColumnAccessTouchesEveryOtherBrickHalfUseful) {
  // "(*, BLOCK) ... processor 0 will access the first two columns, so it has
  // to access brick 0, 2, 4, 6, 8, 10, 12 and 14, and only the first two
  // elements of each brick are really useful."
  const auto usage = map_.SummarizeRegion({{0, 0}, {8, 2}}).value();
  ASSERT_EQ(usage.size(), 8u);
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick % 2, 0u) << "brick " << brick;
    EXPECT_EQ(brick_usage.useful_bytes, 2u);
  }
}

// --- Multidim (Fig 6): 8x8 array, 2x2 bricks --------------------------------

class Fig6MultidimTest : public ::testing::Test {
 protected:
  Fig6MultidimTest() : map_(BrickMap::Multidim({8, 8}, {2, 2}, 1).value()) {}
  BrickMap map_;
};

TEST_F(Fig6MultidimTest, SixteenBricksInAFourByFourGrid) {
  EXPECT_EQ(map_.num_bricks(), 16u);
  EXPECT_EQ(map_.brick_grid(), (Shape{4, 4}));
  EXPECT_EQ(map_.brick_bytes(), 4u);
}

TEST_F(Fig6MultidimTest, FirstTwoColumnsNeedOnlyFourBricks) {
  // "When the processor 0 accesses the first two columns again, it only
  // needs to access 4 bricks (0, 4, 8 and 12) and no extra data is accessed."
  const auto usage = map_.SummarizeRegion({{0, 0}, {8, 2}}).value();
  ASSERT_EQ(usage.size(), 4u);
  EXPECT_TRUE(usage.contains(0));
  EXPECT_TRUE(usage.contains(4));
  EXPECT_TRUE(usage.contains(8));
  EXPECT_TRUE(usage.contains(12));
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.useful_bytes, 4u);  // the whole brick is useful
  }
}

TEST_F(Fig6MultidimTest, RunsCoverRegionInBufferOrder) {
  std::vector<BrickRun> runs;
  ASSERT_TRUE(map_.ForEachRun({{0, 0}, {3, 3}}, [&](const BrickRun& run) {
    runs.push_back(run);
  }).ok());
  // Buffer offsets must be dense, ordered, and total the region size.
  std::uint64_t expected_offset = 0;
  for (const BrickRun& run : runs) {
    EXPECT_EQ(run.buffer_offset, expected_offset);
    expected_offset += run.length;
  }
  EXPECT_EQ(expected_offset, 9u);
}

TEST_F(Fig6MultidimTest, RunSplitsAtBrickColumnBoundary) {
  // One full row crosses 4 bricks along the last dimension.
  std::vector<BrickRun> runs;
  ASSERT_TRUE(map_.ForEachRun({{5, 0}, {1, 8}}, [&](const BrickRun& run) {
    runs.push_back(run);
  }).ok());
  ASSERT_EQ(runs.size(), 4u);
  // Row 5 lives in brick-row 2 (bricks 8..11), local row 1.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(runs[i].brick, 8u + i);
    EXPECT_EQ(runs[i].offset_in_brick, 2u);  // local (1,0) in a 2x2 brick
    EXPECT_EQ(runs[i].length, 2u);
  }
}

TEST_F(Fig6MultidimTest, SummaryMatchesRunEnumeration) {
  const Region region{{1, 3}, {5, 4}};
  const auto usage = map_.SummarizeRegion(region).value();
  std::map<BrickId, std::uint64_t> from_runs;
  std::map<BrickId, std::uint64_t> run_counts;
  ASSERT_TRUE(map_.ForEachRun(region, [&](const BrickRun& run) {
    from_runs[run.brick] += run.length;
    run_counts[run.brick] += 1;
  }).ok());
  ASSERT_EQ(usage.size(), from_runs.size());
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.useful_bytes, from_runs.at(brick));
    EXPECT_EQ(brick_usage.num_runs, run_counts.at(brick));
  }
}

TEST(MultidimMapTest, ElementSizeScalesBytes) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 8).value();
  EXPECT_EQ(map.brick_bytes(), 32u);
  const auto usage = map.SummarizeRegion({{0, 0}, {2, 2}}).value();
  EXPECT_EQ(usage.at(0).useful_bytes, 32u);
}

TEST(MultidimMapTest, EdgeBricksClippedByArrayBounds) {
  // 5x5 array with 2x2 bricks: 3x3 grid, edge bricks partially valid.
  const BrickMap map = BrickMap::Multidim({5, 5}, {2, 2}, 1).value();
  EXPECT_EQ(map.num_bricks(), 9u);
  EXPECT_EQ(map.brick_valid_bytes(0), 4u);  // interior
  EXPECT_EQ(map.brick_valid_bytes(2), 2u);  // right edge: 2x1
  EXPECT_EQ(map.brick_valid_bytes(6), 2u);  // bottom edge: 1x2
  EXPECT_EQ(map.brick_valid_bytes(8), 1u);  // corner: 1x1
}

TEST(MultidimMapTest, ThreeDimensionalBricks) {
  const BrickMap map = BrickMap::Multidim({4, 4, 4}, {2, 2, 2}, 1).value();
  EXPECT_EQ(map.num_bricks(), 8u);
  const auto usage = map.SummarizeRegion({{0, 0, 0}, {2, 2, 2}}).value();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage.at(0).useful_bytes, 8u);
  EXPECT_EQ(usage.at(0).num_runs, 4u);
}

TEST(MultidimMapTest, InvalidConstructions) {
  EXPECT_FALSE(BrickMap::Multidim({8}, {2, 2}, 1).ok());   // rank mismatch
  EXPECT_FALSE(BrickMap::Multidim({8, 8}, {9, 2}, 1).ok()); // brick too big
  EXPECT_FALSE(BrickMap::Multidim({8, 8}, {2, 2}, 0).ok()); // zero elem
  EXPECT_FALSE(BrickMap::Multidim({}, {}, 1).ok());
}

TEST(MultidimMapTest, GeometryPast64BitsRejected) {
  const std::uint64_t big = std::uint64_t{1} << 33;
  // The element count, and so the brick count of 1x1 bricks, is 2^66.
  EXPECT_EQ(BrickMap::Multidim({big, big}, {1, 1}, 1).status().code(),
            StatusCode::kInvalidArgument);
  // 2^62 elements fit, their 8-byte size does not.
  EXPECT_EQ(BrickMap::Multidim({std::uint64_t{1} << 31, std::uint64_t{1} << 31},
                               {1, 1}, 8)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // 2^63 + 1 elements fit, but two padded bricks of 2^63 bytes do not.
  const std::uint64_t half = std::uint64_t{1} << 63;
  EXPECT_EQ(BrickMap::Multidim({half + 1}, {half}, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultidimMapTest, OutOfBoundsRegionRejected) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  EXPECT_FALSE(map.SummarizeRegion({{0, 0}, {9, 1}}).ok());
}

// --- Array level (Fig 7) -----------------------------------------------------

TEST(ArrayMapTest, OneBrickPerChunk) {
  const HpfPattern pattern = HpfPattern::Parse("(BLOCK,BLOCK)").value();
  ProcessGrid grid;
  grid.grid = {2, 2};
  const BrickMap map = BrickMap::Array({8, 8}, pattern, grid, 1).value();
  EXPECT_EQ(map.level(), FileLevel::kArray);
  EXPECT_EQ(map.num_bricks(), 4u);
  EXPECT_EQ(map.brick_shape(), (Shape{4, 4}));
  EXPECT_EQ(map.brick_bytes(), 16u);
}

TEST(ArrayMapTest, ChunkRegionIsExactlyOneBrick) {
  const HpfPattern pattern = HpfPattern::Parse("(BLOCK,BLOCK)").value();
  ProcessGrid grid;
  grid.grid = {2, 2};
  const BrickMap map = BrickMap::Array({8, 8}, pattern, grid, 1).value();
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const Region chunk =
        ChunkForProcess({8, 8}, pattern, grid, rank).value();
    const auto usage = map.SummarizeRegion(chunk).value();
    ASSERT_EQ(usage.size(), 1u) << "rank " << rank;
    EXPECT_EQ(usage.begin()->first, rank);
    EXPECT_EQ(usage.begin()->second.useful_bytes, 16u);
  }
}

TEST(ArrayMapTest, StarBlockChunks) {
  const HpfPattern pattern = HpfPattern::Parse("(*,BLOCK)").value();
  ProcessGrid grid;
  grid.grid = {4};
  const BrickMap map = BrickMap::Array({8, 8}, pattern, grid, 1).value();
  EXPECT_EQ(map.num_bricks(), 4u);
  EXPECT_EQ(map.brick_shape(), (Shape{8, 2}));
}

TEST(ArrayMapTest, GeometryPast64BitsRejected) {
  const std::uint64_t big = std::uint64_t{1} << 33;
  ProcessGrid grid;
  grid.grid = {big, big};
  EXPECT_EQ(BrickMap::Array({big, big},
                            HpfPattern::Parse("(BLOCK,BLOCK)").value(), grid,
                            1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ArrayMapTest, NonDivisibleRejected) {
  const HpfPattern pattern = HpfPattern::Parse("(BLOCK,*)").value();
  ProcessGrid grid;
  grid.grid = {3};
  EXPECT_FALSE(BrickMap::Array({8, 8}, pattern, grid, 1).ok());
}

// --- Whole-file coverage property -------------------------------------------

class CoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverageTest, EveryElementMapsToExactlyOneBrickByte) {
  // Reading the entire array must touch each brick for exactly its valid
  // byte count, across all three levels.
  BrickMap map = BrickMap::Linear(0, 1).value();
  switch (GetParam()) {
    case 0:
      map = BrickMap::LinearArray({6, 10}, 1, 7).value();
      break;
    case 1:
      map = BrickMap::Multidim({6, 10}, {2, 3}, 1).value();
      break;
    case 2: {
      const HpfPattern pattern = HpfPattern::Parse("(BLOCK,BLOCK)").value();
      ProcessGrid grid;
      grid.grid = {2, 2};
      map = BrickMap::Array({6, 10}, pattern, grid, 1).value();
      break;
    }
  }
  const Region all{{0, 0}, {6, 10}};
  const auto usage = map.SummarizeRegion(all).value();
  std::uint64_t total = 0;
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.useful_bytes, map.brick_valid_bytes(brick))
        << "brick " << brick;
    total += brick_usage.useful_bytes;
  }
  EXPECT_EQ(total, 60u);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, CoverageTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace dpfs::layout
