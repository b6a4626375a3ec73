// Pins the replication extension's pure-math half (layout/replication.h):
// rank 0 is byte-identical to the unreplicated placement, replica ranks
// respect failure domains and the shared cost accumulator, and write-plan
// expansion / read remapping preserve exactly the bytes of the original
// plan at every rank.
#include "layout/replication.h"

#include <gtest/gtest.h>

#include <set>

#include "layout/brick_map.h"
#include "layout/plan.h"

namespace dpfs::layout {
namespace {

ReplicationSpec Spec(std::uint32_t factor,
                     std::vector<std::uint32_t> domains = {}) {
  ReplicationSpec spec;
  spec.factor = factor;
  spec.domains = std::move(domains);
  return spec;
}

TEST(ReplicatedDistributionTest, FactorOneRankZeroIsByteIdentical) {
  // The R=1 pin: one rank, and its bricklists encode to exactly what
  // BrickDistribution::Create produces — the metadata rows, and therefore
  // the whole system, are unchanged when replication is off.
  const std::vector<std::uint32_t> perf = {1, 3, 1, 2};
  const BrickDistribution plain =
      BrickDistribution::Create(PlacementPolicy::kGreedy, 32, perf).value();
  const ReplicatedDistribution replicated =
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 32, perf,
                                     Spec(1))
          .value();
  ASSERT_EQ(replicated.factor(), 1u);
  for (ServerId s = 0; s < plain.num_servers(); ++s) {
    EXPECT_EQ(BrickDistribution::EncodeBrickList(replicated.primary().bricks_on(s)),
              BrickDistribution::EncodeBrickList(plain.bricks_on(s)));
  }
  for (BrickId b = 0; b < 32; ++b) {
    EXPECT_EQ(replicated.primary().slot_for(b), plain.slot_for(b));
  }
}

TEST(ReplicatedDistributionTest, PrimaryRankUnchangedByReplication) {
  // Adding replica ranks must not move the primary: rank 0 of an R=3
  // distribution equals the R=1 placement brick for brick.
  const std::vector<std::uint32_t> perf = {1, 2, 1, 2, 1, 1};
  const BrickDistribution plain =
      BrickDistribution::Create(PlacementPolicy::kGreedy, 24, perf).value();
  const ReplicatedDistribution replicated =
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 24, perf,
                                     Spec(3))
          .value();
  ASSERT_EQ(replicated.factor(), 3u);
  for (BrickId b = 0; b < 24; ++b) {
    EXPECT_EQ(replicated.primary().server_for(b), plain.server_for(b));
  }
}

TEST(ReplicatedDistributionTest, ReplicasNeverShareAServer) {
  // Default domains: every server its own domain, so a brick's R copies
  // land on R distinct servers.
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kGreedy}) {
    const ReplicatedDistribution dist =
        ReplicatedDistribution::Create(policy, 40, {1, 1, 2, 1, 2}, Spec(3))
            .value();
    for (BrickId b = 0; b < 40; ++b) {
      std::set<ServerId> servers;
      for (std::uint32_t r = 0; r < dist.factor(); ++r) {
        servers.insert(dist.rank(r).server_for(b));
      }
      EXPECT_EQ(servers.size(), 3u) << "brick " << b;
    }
  }
}

TEST(ReplicatedDistributionTest, ReplicasNeverShareAFailureDomain) {
  // 6 servers in 3 racks: each brick's two copies must be in two racks.
  const std::vector<std::uint32_t> racks = {0, 0, 1, 1, 2, 2};
  const ReplicatedDistribution dist =
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 36,
                                     {1, 1, 1, 1, 1, 1}, Spec(2, racks))
          .value();
  for (BrickId b = 0; b < 36; ++b) {
    std::set<std::uint32_t> domains;
    for (std::uint32_t r = 0; r < 2; ++r) {
      domains.insert(racks[dist.rank(r).server_for(b)]);
    }
    EXPECT_EQ(domains.size(), 2u) << "brick " << b;
  }
}

TEST(ReplicatedDistributionTest, FactorBeyondDomainsRejected) {
  // 4 servers in 2 racks cannot hold 3 rack-disjoint copies.
  const Result<ReplicatedDistribution> dist = ReplicatedDistribution::Create(
      PlacementPolicy::kGreedy, 8, {1, 1, 1, 1}, Spec(3, {0, 0, 1, 1}));
  EXPECT_EQ(dist.status().code(), StatusCode::kInvalidArgument);
  // Likewise factor > server count with default domains.
  EXPECT_EQ(ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 8,
                                           {1, 1, 1}, Spec(4))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ReplicatedDistributionTest, MisSizedDomainVectorRejected) {
  EXPECT_EQ(ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 8,
                                           {1, 1, 1, 1}, Spec(2, {0, 1}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ReplicatedDistributionTest, SharedAccumulatorSpreadsReplicaLoad) {
  // Homogeneous cluster, R=2: the accumulator is shared across ranks, so
  // total copies (primary + replica) stay balanced — every server ends up
  // with 2*bricks/servers copies, not some servers doubled and some empty.
  const ReplicatedDistribution dist =
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 32,
                                     {1, 1, 1, 1}, Spec(2))
          .value();
  std::vector<std::size_t> copies(4, 0);
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (ServerId s = 0; s < 4; ++s) {
      copies[s] += dist.rank(r).bricks_on(s).size();
    }
  }
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(copies[s], 16u) << "server " << s;
  }
}

TEST(ReplicatedDistributionTest, CapacityAwareBudgetsCoverAllCopies) {
  // Budgets count copies, not just primaries: 16 bricks * 2 copies need 32
  // slots; 4 servers * 8 slots exactly fit, 4 * 7 do not.
  EXPECT_TRUE(ReplicatedDistribution::Create(PlacementPolicy::kCapacityAware,
                                             16, {1, 1, 1, 1}, Spec(2),
                                             {8, 8, 8, 8})
                  .ok());
  EXPECT_EQ(ReplicatedDistribution::Create(PlacementPolicy::kCapacityAware, 16,
                                           {1, 1, 1, 1}, Spec(2), {7, 7, 7, 7})
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ReplicatedDistributionTest, FromRanksRoundTrips) {
  const ReplicatedDistribution dist =
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy, 20,
                                     {1, 2, 1, 1}, Spec(2))
          .value();
  std::vector<BrickDistribution> ranks = dist.ranks();
  const ReplicatedDistribution rebuilt =
      ReplicatedDistribution::FromRanks(std::move(ranks)).value();
  ASSERT_EQ(rebuilt.factor(), 2u);
  for (BrickId b = 0; b < 20; ++b) {
    EXPECT_EQ(rebuilt.rank(0).server_for(b), dist.rank(0).server_for(b));
    EXPECT_EQ(rebuilt.rank(1).server_for(b), dist.rank(1).server_for(b));
  }
}

TEST(ReplicatedDistributionTest, FromRanksRejectsMismatchedShapes) {
  std::vector<BrickDistribution> ranks;
  ranks.push_back(BrickDistribution::RoundRobin(8, 4).value());
  ranks.push_back(BrickDistribution::RoundRobin(12, 4).value());
  EXPECT_EQ(ReplicatedDistribution::FromRanks(std::move(ranks))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReplicatedDistribution::FromRanks({}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Plan expansion and read remapping.

class ExpandPlanTest : public ::testing::Test {
 protected:
  ExpandPlanTest()
      : map_(BrickMap::Linear(64 * 1024, 4 * 1024).value()),
        dist_(ReplicatedDistribution::Create(PlacementPolicy::kRoundRobin, 16,
                                             {1, 1, 1, 1}, Spec(2))
                  .value()) {}

  [[nodiscard]] ClientPlan WritePlan(std::uint64_t offset,
                                     std::uint64_t length) const {
    PlanOptions options;
    options.direction = IoDirection::kWrite;
    options.combine = true;
    return PlanByteAccess(map_, dist_.primary(), 0, offset, length, options)
        .value();
  }

  BrickMap map_;
  ReplicatedDistribution dist_;
};

TEST_F(ExpandPlanTest, FactorOnePlanPassesThroughUnchanged) {
  const ReplicatedDistribution solo =
      ReplicatedDistribution::Create(PlacementPolicy::kRoundRobin, 16,
                                     {1, 1, 1, 1}, Spec(1))
          .value();
  const ClientPlan plan = WritePlan(0, 32 * 1024);
  const ClientPlan expanded = ExpandWritePlan(plan, solo).value();
  ASSERT_EQ(expanded.requests.size(), plan.requests.size());
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    EXPECT_EQ(expanded.requests[i].server, plan.requests[i].server);
    EXPECT_EQ(expanded.requests[i].replica, 0u);
    EXPECT_EQ(expanded.requests[i].bricks, plan.requests[i].bricks);
  }
}

TEST_F(ExpandPlanTest, ExpansionCarriesEveryBrickAtEveryRank) {
  const ClientPlan plan = WritePlan(0, 64 * 1024);
  const ClientPlan expanded = ExpandWritePlan(plan, dist_).value();
  // Transfer doubles: every byte crosses the wire once per rank.
  EXPECT_EQ(expanded.transfer_bytes(), 2 * plan.transfer_bytes());
  // Each (rank, brick) appears exactly once, on that rank's server.
  std::set<std::pair<std::uint32_t, BrickId>> seen;
  for (const ServerRequest& request : expanded.requests) {
    ASSERT_LT(request.replica, 2u);
    for (const BrickRequest& brick : request.bricks) {
      EXPECT_EQ(request.server,
                dist_.rank(request.replica).server_for(brick.brick));
      EXPECT_TRUE(seen.emplace(request.replica, brick.brick).second);
    }
  }
  EXPECT_EQ(seen.size(), 2u * 16u);
}

TEST_F(ExpandPlanTest, ReplicaRequestsFollowTheirOriginal) {
  // Ordering: each original request is immediately followed by its replica
  // copies, so the serial executor writes a brick's copies back to back.
  const ClientPlan plan = WritePlan(0, 64 * 1024);
  const ClientPlan expanded = ExpandWritePlan(plan, dist_).value();
  ASSERT_EQ(plan.requests.size() * 2, expanded.requests.size());
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const ServerRequest& original = expanded.requests[2 * i];
    const ServerRequest& replica = expanded.requests[2 * i + 1];
    EXPECT_EQ(original.replica, 0u);
    EXPECT_EQ(original.server, plan.requests[i].server);
    EXPECT_EQ(original.bricks, plan.requests[i].bricks);
    EXPECT_EQ(replica.replica, 1u);
  }
}

TEST_F(ExpandPlanTest, RemapPreservesBytesAndRegroupsByRankServer) {
  PlanOptions options;
  options.direction = IoDirection::kRead;
  options.combine = true;
  const ClientPlan plan =
      PlanByteAccess(map_, dist_.primary(), 0, 0, 64 * 1024, options).value();
  for (const ServerRequest& request : plan.requests) {
    const std::vector<ServerRequest> remapped =
        RemapRequestToRank(request, dist_.rank(1), 1).value();
    // Same brick set, same per-brick byte accounting, rank-1 servers.
    std::uint64_t bricks_seen = 0;
    ServerId last_server = 0;
    bool first = true;
    for (const ServerRequest& out : remapped) {
      EXPECT_EQ(out.replica, 1u);
      if (!first) {
        EXPECT_GT(out.server, last_server);  // ascending order
      }
      last_server = out.server;
      first = false;
      for (const BrickRequest& brick : out.bricks) {
        EXPECT_EQ(out.server, dist_.rank(1).server_for(brick.brick));
        ++bricks_seen;
      }
    }
    EXPECT_EQ(bricks_seen, request.bricks.size());
    std::uint64_t remapped_bytes = 0;
    for (const ServerRequest& out : remapped) {
      remapped_bytes += out.transfer_bytes();
    }
    EXPECT_EQ(remapped_bytes, request.transfer_bytes());
  }
}

TEST(ReplicaSubfileNameTest, RankZeroIsThePathItself) {
  EXPECT_EQ(ReplicaSubfileName("/a/b.bin", 0), "/a/b.bin");
  EXPECT_EQ(ReplicaSubfileName("/a/b.bin", 1), "/a/b.bin#r1");
  EXPECT_EQ(ReplicaSubfileName("/a/b.bin", 2), "/a/b.bin#r2");
}

}  // namespace
}  // namespace dpfs::layout
