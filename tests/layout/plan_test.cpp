#include "layout/plan.h"

#include <gtest/gtest.h>

namespace dpfs::layout {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  // Fig 3's file: 32 bricks over 4 servers round-robin. We model it as a
  // linear byte file of 32 bricks x 8 bytes.
  PlanTest()
      : map_(BrickMap::Linear(32 * 8, 8).value()),
        dist_(BrickDistribution::RoundRobin(32, 4).value()) {}

  BrickMap map_;
  BrickDistribution dist_;
};

TEST_F(PlanTest, UncombinedOneRequestPerBrick) {
  PlanOptions options;
  options.combine = false;
  // Processor 0 accesses bricks 0..7 (bytes 0..64).
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 64, options).value();
  EXPECT_EQ(plan.num_requests(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.requests[i].bricks.size(), 1u);
    EXPECT_EQ(plan.requests[i].bricks[0].brick, i);
    EXPECT_EQ(plan.requests[i].server, i % 4);
  }
}

TEST_F(PlanTest, CombinedOneRequestPerServer) {
  // §4.2: "there are only 4 requests needed for each processor, much
  // smaller than 8 requests of general approach."
  PlanOptions options;
  options.combine = true;
  options.rotate_start = false;
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 64, options).value();
  EXPECT_EQ(plan.num_requests(), 4u);
  for (const ServerRequest& request : plan.requests) {
    EXPECT_EQ(request.bricks.size(), 2u);
  }
  // Client 0's request to server 0 carries bricks 0 and 4.
  EXPECT_EQ(plan.requests[0].server, 0u);
  EXPECT_EQ(plan.requests[0].bricks[0].brick, 0u);
  EXPECT_EQ(plan.requests[0].bricks[1].brick, 4u);
}

TEST_F(PlanTest, RotationStaggersStartServers) {
  PlanOptions options;
  options.combine = true;
  options.rotate_start = true;
  // All four processors access disjoint brick ranges covering all servers.
  for (std::uint32_t client = 0; client < 4; ++client) {
    const ClientPlan plan =
        PlanByteAccess(map_, dist_, client, client * 64, 64, options).value();
    ASSERT_EQ(plan.num_requests(), 4u);
    EXPECT_EQ(plan.requests[0].server, client % 4)
        << "client " << client << " should start on its own server";
  }
}

TEST_F(PlanTest, ReadTransfersWholeBricks) {
  PlanOptions options;
  options.direction = IoDirection::kRead;
  options.combine = false;
  // Read 4 bytes spanning half of brick 1.
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 8, 4, options).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  EXPECT_EQ(plan.requests[0].bricks[0].useful_bytes, 4u);
  EXPECT_EQ(plan.requests[0].bricks[0].transfer_bytes, 8u);  // whole brick
  EXPECT_EQ(plan.transfer_bytes(), 8u);
  EXPECT_EQ(plan.useful_bytes(), 4u);
}

TEST_F(PlanTest, WriteTransfersOnlyUsefulBytes) {
  PlanOptions options;
  options.direction = IoDirection::kWrite;
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 8, 4, options).value();
  EXPECT_EQ(plan.transfer_bytes(), 4u);
  EXPECT_EQ(plan.useful_bytes(), 4u);
}

TEST_F(PlanTest, ReadOfLinearTailBrickTransfersValidBytesOnly) {
  const BrickMap map = BrickMap::Linear(20, 8).value();  // bricks 8,8,4
  const BrickDistribution dist = BrickDistribution::RoundRobin(3, 2).value();
  PlanOptions options;
  options.direction = IoDirection::kRead;
  const ClientPlan plan = PlanByteAccess(map, dist, 0, 16, 4, options).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  EXPECT_EQ(plan.requests[0].bricks[0].transfer_bytes, 4u);
}

TEST_F(PlanTest, CollectivePlanCoversAllClients) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  std::vector<Region> regions;
  for (std::uint64_t c = 0; c < 4; ++c) {
    regions.push_back({{0, c * 2}, {8, 2}});  // (*,BLOCK) with 4 clients
  }
  PlanOptions options;
  options.combine = true;
  const IoPlan plan = PlanCollectiveAccess(map, dist, regions, options).value();
  ASSERT_EQ(plan.clients.size(), 4u);
  EXPECT_EQ(plan.total_useful_bytes(), 64u);
  for (const ClientPlan& client : plan.clients) {
    EXPECT_EQ(client.useful_bytes(), 16u);
  }
}

TEST_F(PlanTest, DistributionSmallerThanFileRejected) {
  const BrickDistribution small = BrickDistribution::RoundRobin(4, 2).value();
  PlanOptions options;
  EXPECT_FALSE(PlanByteAccess(map_, small, 0, 0, 64, options).ok());
}

TEST_F(PlanTest, RegionPlanOnShapedLinearFile) {
  // Fig 5 workload through the planner: 8x8 array, 4-element linear bricks,
  // processor reading two columns touches 8 bricks.
  const BrickMap map = BrickMap::LinearArray({8, 8}, 1, 4).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  PlanOptions options;
  options.combine = false;
  const ClientPlan plan =
      PlanRegionAccess(map, dist, 0, {{0, 0}, {8, 2}}, options).value();
  EXPECT_EQ(plan.num_requests(), 8u);
  // Whole-brick reads: 8 bricks x 4 bytes transferred for 16 useful bytes.
  EXPECT_EQ(plan.transfer_bytes(), 32u);
  EXPECT_EQ(plan.useful_bytes(), 16u);
}

TEST_F(PlanTest, CombineReducesRequestsNotBytes) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  const Region region{{0, 0}, {8, 2}};
  PlanOptions uncombined;
  uncombined.combine = false;
  PlanOptions combined;
  combined.combine = true;
  const ClientPlan plan_u =
      PlanRegionAccess(map, dist, 0, region, uncombined).value();
  const ClientPlan plan_c =
      PlanRegionAccess(map, dist, 0, region, combined).value();
  EXPECT_GT(plan_u.num_requests(), plan_c.num_requests());
  EXPECT_EQ(plan_u.transfer_bytes(), plan_c.transfer_bytes());
  EXPECT_EQ(plan_u.useful_bytes(), plan_c.useful_bytes());
}

TEST_F(PlanTest, BrickOrderPreservedInsideCombinedRequest) {
  PlanOptions options;
  options.combine = true;
  options.rotate_start = false;
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 32 * 8, options).value();
  for (const ServerRequest& request : plan.requests) {
    for (std::size_t i = 1; i < request.bricks.size(); ++i) {
      EXPECT_LT(request.bricks[i - 1].brick, request.bricks[i].brick);
    }
  }
}

TEST_F(PlanTest, EmptyAccessYieldsEmptyPlan) {
  PlanOptions options;
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 0, 0, options).value();
  EXPECT_EQ(plan.num_requests(), 0u);
  EXPECT_EQ(plan.transfer_bytes(), 0u);
}

// --- list I/O (PlanListAccess, docs/NONCONTIGUOUS_IO.md) -------------------

/// What the datatype path asks for: combined, sieve reads, no rotation.
PlanOptions SieveCombined() {
  PlanOptions options;
  options.combine = true;
  options.rotate_start = false;
  options.whole_brick_reads = false;
  return options;
}

TEST_F(PlanTest, ListAccessOneRequestPerServer) {
  // A strided pattern touching bricks 0..7 (one 2-byte piece each): with
  // combination, 4 requests cover 4 servers, each carrying its two bricks.
  std::vector<FileExtent> extents;
  for (std::uint64_t i = 0; i < 8; ++i) extents.push_back({i * 8, 2});
  const ClientPlan plan =
      PlanListAccess(map_, dist_, 0, extents, SieveCombined()).value();
  EXPECT_FALSE(plan.whole_brick_reads);
  ASSERT_EQ(plan.num_requests(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const ServerRequest& request = plan.requests[s];
    EXPECT_EQ(request.server, s);
    ASSERT_EQ(request.bricks.size(), 2u);
    EXPECT_EQ(request.bricks[0], (BrickRequest{s, 2, 2, 1, 1}));
    EXPECT_EQ(request.bricks[1], (BrickRequest{s + 4, 2, 2, 1, 1}));
  }
  // Sieve reads move exactly the useful bytes...
  EXPECT_EQ(plan.transfer_bytes(), 16u);
  EXPECT_EQ(plan.useful_bytes(), 16u);
  // ...whole-brick reads fetch each touched brick once, and without
  // combination each brick is its own request.
  PlanOptions whole = SieveCombined();
  whole.whole_brick_reads = true;
  EXPECT_EQ(PlanListAccess(map_, dist_, 0, extents, whole)
                .value()
                .transfer_bytes(),
            64u);
  PlanOptions uncombined = SieveCombined();
  uncombined.combine = false;
  EXPECT_EQ(PlanListAccess(map_, dist_, 0, extents, uncombined)
                .value()
                .num_requests(),
            8u);
}

TEST_F(PlanTest, ListAccessMergesAdjacentPieces) {
  // Two touching extents inside one brick are one piece of it.
  const ClientPlan touching =
      PlanListAccess(map_, dist_, 0, {{0, 3}, {3, 2}}, SieveCombined())
          .value();
  ASSERT_EQ(touching.num_requests(), 1u);
  EXPECT_EQ(touching.requests[0].bricks,
            (std::vector<BrickRequest>{{0, 5, 5, 1, 1}}));

  // stride == block: 8 touching 2-byte extents are one fragment per brick,
  // not one per extent.
  std::vector<FileExtent> packed;
  for (std::uint64_t i = 0; i < 8; ++i) packed.push_back({i * 2, 2});
  const ClientPlan dense =
      PlanListAccess(map_, dist_, 0, packed, SieveCombined()).value();
  ASSERT_EQ(dense.num_requests(), 2u);
  EXPECT_EQ(dense.requests[0].bricks,
            (std::vector<BrickRequest>{{0, 8, 8, 1, 1}}));
  EXPECT_EQ(dense.requests[1].bricks,
            (std::vector<BrickRequest>{{1, 8, 8, 1, 1}}));

  // One extent over bricks 0..5: server 0 carries bricks 0 and 4, one
  // fragment each.
  const ClientPlan spanning =
      PlanListAccess(map_, dist_, 0, {{0, 48}}, SieveCombined()).value();
  ASSERT_EQ(spanning.num_requests(), 4u);
  EXPECT_EQ(spanning.requests[0].bricks,
            (std::vector<BrickRequest>{{0, 8, 8, 1, 1}, {4, 8, 8, 1, 1}}));
}

TEST_F(PlanTest, ListAccessSingleServerGetsOneRequest) {
  // With one server every brick lands on it, in consecutive slots: a
  // contiguous range is one request carrying its three bricks.
  const BrickDistribution one = BrickDistribution::RoundRobin(32, 1).value();
  const ClientPlan plan =
      PlanListAccess(map_, one, 0, {{0, 24}}, SieveCombined()).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  ASSERT_EQ(plan.requests[0].bricks.size(), 3u);
  EXPECT_EQ(plan.transfer_bytes(), 24u);
}

TEST_F(PlanTest, ListAccessRotationStaggersStartServers) {
  PlanOptions options = SieveCombined();
  options.rotate_start = true;
  std::vector<FileExtent> extents;
  for (std::uint64_t i = 0; i < 8; ++i) extents.push_back({i * 8, 2});
  for (std::uint32_t client = 0; client < 4; ++client) {
    const ClientPlan plan =
        PlanListAccess(map_, dist_, client, extents, options).value();
    ASSERT_EQ(plan.num_requests(), 4u);
    EXPECT_EQ(plan.requests[0].server, client % 4);
  }
}

TEST_F(PlanTest, ListAccessValidatesExtents) {
  const PlanOptions options = SieveCombined();
  // Zero-length extent.
  EXPECT_FALSE(PlanListAccess(map_, dist_, 0, {{0, 0}}, options).ok());
  // Overlap.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{0, 16}, {8, 4}}, options).ok());
  // Out of order.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{64, 4}, {0, 4}}, options).ok());
  // Past the distribution's bricks, also as a plain byte access.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{32 * 8, 4}}, options).ok());
  EXPECT_FALSE(PlanByteAccess(map_, dist_, 0, 32 * 8, 4, options).ok());
  // Adjacent extents are legal (they merge).
  EXPECT_TRUE(PlanListAccess(map_, dist_, 0, {{0, 4}, {4, 4}}, options).ok());
}

TEST_F(PlanTest, ExtentEndingPastTheFileIsRejected) {
  const PlanOptions options = SieveCombined();
  // The end offset wraps past 2^64: a naive end check would pass it on to
  // brick 0 and beyond.
  const std::uint64_t near_max = ~std::uint64_t{0} - 7;
  EXPECT_EQ(PlanByteAccess(map_, dist_, 0, near_max, 16, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanListAccess(map_, dist_, 0, {{0, 4}, {near_max, 16}}, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Inside the tail brick but past the last byte of the file.
  const BrickMap tail = BrickMap::Linear(20, 8).value();  // bricks 8,8,4
  const BrickDistribution dist = BrickDistribution::RoundRobin(3, 2).value();
  EXPECT_EQ(PlanByteAccess(tail, dist, 0, 16, 5, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(PlanByteAccess(tail, dist, 0, 16, 4, options).ok());
}

TEST_F(PlanTest, ListAccessRequiresLinearFile) {
  const BrickMap tiled = BrickMap::Multidim({8, 8}, {4, 4}, 1).value();
  const BrickDistribution dist =
      BrickDistribution::RoundRobin(tiled.num_bricks(), 2).value();
  EXPECT_FALSE(PlanListAccess(tiled, dist, 0, {{0, 4}}, SieveCombined()).ok());
}

TEST_F(PlanTest, ListAccessEmptyExtentsYieldEmptyPlan) {
  const ClientPlan plan =
      PlanListAccess(map_, dist_, 0, {}, SieveCombined()).value();
  EXPECT_EQ(plan.num_requests(), 0u);
}

TEST_F(PlanTest, ListAccessAccountingMatchesSievePlan) {
  // Per brick, usage sums over the extents: bytes 1-2, 4-5, 9-11, 14-19
  // leave two pieces in brick 0 (4 bytes), two in brick 1 (5 bytes) and
  // one in brick 2 (4 bytes).
  const std::vector<FileExtent> extents = {{1, 2}, {4, 2}, {9, 3}, {14, 6}};
  PlanOptions options = SieveCombined();
  options.combine = false;
  const ClientPlan sieve =
      PlanListAccess(map_, dist_, 0, extents, options).value();
  ASSERT_EQ(sieve.num_requests(), 3u);
  EXPECT_EQ(sieve.requests[0].bricks[0], (BrickRequest{0, 4, 4, 2, 2}));
  EXPECT_EQ(sieve.requests[1].bricks[0], (BrickRequest{1, 5, 5, 2, 2}));
  EXPECT_EQ(sieve.requests[2].bricks[0], (BrickRequest{2, 4, 4, 1, 1}));
  // Whole-brick reads keep the usage and move whole bricks.
  options.whole_brick_reads = true;
  const ClientPlan whole =
      PlanListAccess(map_, dist_, 0, extents, options).value();
  EXPECT_EQ(whole.requests[1].bricks[0], (BrickRequest{1, 5, 8, 2, 2}));
}

}  // namespace
}  // namespace dpfs::layout
