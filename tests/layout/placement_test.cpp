#include "layout/placement.h"

#include <gtest/gtest.h>

namespace dpfs::layout {
namespace {

TEST(PolicyTest, Parse) {
  EXPECT_EQ(ParsePlacementPolicy("round-robin").value(),
            PlacementPolicy::kRoundRobin);
  EXPECT_EQ(ParsePlacementPolicy("rr").value(), PlacementPolicy::kRoundRobin);
  EXPECT_EQ(ParsePlacementPolicy("GREEDY").value(), PlacementPolicy::kGreedy);
  EXPECT_FALSE(ParsePlacementPolicy("random").ok());
}

TEST(RoundRobinTest, Fig3Distribution) {
  // Fig 3: 32 bricks over 4 devices round-robin.
  const BrickDistribution dist = BrickDistribution::RoundRobin(32, 4).value();
  EXPECT_EQ(dist.num_bricks(), 32u);
  EXPECT_EQ(dist.num_servers(), 4u);
  for (BrickId brick = 0; brick < 32; ++brick) {
    EXPECT_EQ(dist.server_for(brick), brick % 4);
    EXPECT_EQ(dist.slot_for(brick), brick / 4);
  }
  EXPECT_EQ(dist.bricks_on(0),
            (std::vector<BrickId>{0, 4, 8, 12, 16, 20, 24, 28}));
}

TEST(RoundRobinTest, ZeroServersRejected) {
  EXPECT_FALSE(BrickDistribution::RoundRobin(8, 0).ok());
}

TEST(RoundRobinTest, EmptyFileIsValid) {
  const BrickDistribution dist = BrickDistribution::RoundRobin(0, 4).value();
  EXPECT_EQ(dist.num_bricks(), 0u);
}

TEST(GreedyTest, HomogeneousEqualsRoundRobinCounts) {
  const BrickDistribution dist =
      BrickDistribution::Greedy(32, {1, 1, 1, 1}).value();
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(dist.bricks_on(s).size(), 8u);
  }
}

TEST(GreedyTest, Fig8AlgorithmExactSequence) {
  // Hand-simulate Fig 8 with P = {1, 3}: A starts {0,0}.
  // brick 0: A+P = {1,3} → server 0, A={1,0}
  // brick 1: {2,3} → server 0, A={2,0}
  // brick 2: {3,3} → tie → lowest k = 0, A={3,0}
  // brick 3: {4,3} → server 1, A={3,3}
  // brick 4: {4,6} → server 0, A={4,3}
  // brick 5: {5,6} → server 0, A={5,3}
  const BrickDistribution dist = BrickDistribution::Greedy(6, {1, 3}).value();
  EXPECT_EQ(dist.server_for(0), 0u);
  EXPECT_EQ(dist.server_for(1), 0u);
  EXPECT_EQ(dist.server_for(2), 0u);
  EXPECT_EQ(dist.server_for(3), 1u);
  EXPECT_EQ(dist.server_for(4), 0u);
  EXPECT_EQ(dist.server_for(5), 0u);
}

TEST(GreedyTest, FastServerGetsProportionallyMoreBricks) {
  // §8.2: "class 1 is about 3 times faster than class 3, so the greedy
  // algorithm will assign class 1 storage three times the number of bricks".
  const BrickDistribution dist =
      BrickDistribution::Greedy(4000, {1, 3}).value();
  const double ratio =
      static_cast<double>(dist.bricks_on(0).size()) /
      static_cast<double>(dist.bricks_on(1).size());
  EXPECT_NEAR(ratio, 3.0, 0.01);
}

TEST(GreedyTest, HalfFastHalfSlowMix) {
  // The Fig 13/14 setup: half class-1 (P=1) and half class-3 (P=3) servers.
  const BrickDistribution dist =
      BrickDistribution::Greedy(8000, {1, 1, 3, 3}).value();
  const std::size_t fast =
      dist.bricks_on(0).size() + dist.bricks_on(1).size();
  const std::size_t slow =
      dist.bricks_on(2).size() + dist.bricks_on(3).size();
  EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(slow), 3.0,
              0.05);
  EXPECT_EQ(fast + slow, 8000u);
}

TEST(GreedyTest, RejectsZeroPerformance) {
  EXPECT_FALSE(BrickDistribution::Greedy(8, {1, 0}).ok());
  EXPECT_FALSE(BrickDistribution::Greedy(8, {}).ok());
}

TEST(GreedyTest, SlotsAreDenseWithinSubfile) {
  const BrickDistribution dist =
      BrickDistribution::Greedy(100, {1, 2, 5}).value();
  for (ServerId s = 0; s < 3; ++s) {
    const std::vector<BrickId>& bricks = dist.bricks_on(s);
    for (std::size_t slot = 0; slot < bricks.size(); ++slot) {
      EXPECT_EQ(dist.slot_for(bricks[slot]), slot);
      EXPECT_EQ(dist.server_for(bricks[slot]), s);
    }
  }
}

TEST(CreateTest, DispatchesByPolicy) {
  const BrickDistribution rr =
      BrickDistribution::Create(PlacementPolicy::kRoundRobin, 12, {1, 3, 1})
          .value();
  EXPECT_EQ(rr.bricks_on(0).size(), 4u);  // RR ignores performance
  const BrickDistribution greedy =
      BrickDistribution::Create(PlacementPolicy::kGreedy, 12, {1, 3, 1})
          .value();
  EXPECT_GT(greedy.bricks_on(0).size(), greedy.bricks_on(1).size());
}

TEST(CapacityAwareTest, RespectsBudgets) {
  // Two equal-speed servers, one tiny: the tiny one takes its 3 bricks and
  // the rest spill to the big one.
  const BrickDistribution dist =
      BrickDistribution::CapacityAware(20, {1, 1}, {100, 3}).value();
  EXPECT_EQ(dist.bricks_on(1).size(), 3u);
  EXPECT_EQ(dist.bricks_on(0).size(), 17u);
}

TEST(CapacityAwareTest, MatchesGreedyWhenCapacityIsAmple) {
  const BrickDistribution greedy =
      BrickDistribution::Greedy(64, {1, 3, 2}).value();
  const BrickDistribution capped =
      BrickDistribution::CapacityAware(64, {1, 3, 2}, {1000, 1000, 1000})
          .value();
  for (BrickId brick = 0; brick < 64; ++brick) {
    EXPECT_EQ(capped.server_for(brick), greedy.server_for(brick));
  }
}

TEST(CapacityAwareTest, InsufficientTotalCapacityFails) {
  const Result<BrickDistribution> dist =
      BrickDistribution::CapacityAware(20, {1, 1}, {10, 9});
  EXPECT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kResourceExhausted);
}

TEST(CapacityAwareTest, ExactFitUsesEveryBudget) {
  const BrickDistribution dist =
      BrickDistribution::CapacityAware(12, {1, 2, 3}, {4, 4, 4}).value();
  for (ServerId s = 0; s < 3; ++s) {
    EXPECT_EQ(dist.bricks_on(s).size(), 4u);
  }
}

TEST(CapacityAwareTest, MismatchedVectorsRejected) {
  EXPECT_FALSE(BrickDistribution::CapacityAware(4, {1, 1}, {10}).ok());
  EXPECT_FALSE(BrickDistribution::CapacityAware(4, {}, {}).ok());
  EXPECT_FALSE(BrickDistribution::CapacityAware(4, {0, 1}, {10, 10}).ok());
}

TEST(CapacityAwareTest, ZeroCapacityServerGetsNothing) {
  const BrickDistribution dist =
      BrickDistribution::CapacityAware(10, {1, 1, 1}, {20, 0, 20}).value();
  EXPECT_TRUE(dist.bricks_on(1).empty());
  EXPECT_EQ(dist.bricks_on(0).size() + dist.bricks_on(2).size(), 10u);
}

TEST(PolicyTest, ParseCapacityAware) {
  EXPECT_EQ(ParsePlacementPolicy("capacity-aware").value(),
            PlacementPolicy::kCapacityAware);
  EXPECT_EQ(PlacementPolicyName(PlacementPolicy::kCapacityAware),
            "capacity-aware");
}

TEST(BrickListCodecTest, RoundTrip) {
  const std::vector<BrickId> bricks = {0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30};
  const std::string encoded = BrickDistribution::EncodeBrickList(bricks);
  EXPECT_EQ(encoded, "0,2,6,8,12,14,18,20,24,26,30");
  EXPECT_EQ(BrickDistribution::DecodeBrickList(encoded).value(), bricks);
}

TEST(BrickListCodecTest, EmptyList) {
  EXPECT_EQ(BrickDistribution::EncodeBrickList({}), "");
  EXPECT_TRUE(BrickDistribution::DecodeBrickList("").value().empty());
  EXPECT_TRUE(BrickDistribution::DecodeBrickList("  ").value().empty());
}

TEST(BrickListCodecTest, RejectsGarbage) {
  EXPECT_FALSE(BrickDistribution::DecodeBrickList("1,x,3").ok());
  EXPECT_FALSE(BrickDistribution::DecodeBrickList("1,-2").ok());
}

TEST(FromBrickListsTest, RebuildsDistribution) {
  const BrickDistribution original =
      BrickDistribution::Greedy(64, {1, 2, 3}).value();
  std::vector<std::vector<BrickId>> lists;
  for (ServerId s = 0; s < 3; ++s) lists.push_back(original.bricks_on(s));
  const BrickDistribution rebuilt =
      BrickDistribution::FromBrickLists(64, std::move(lists)).value();
  for (BrickId brick = 0; brick < 64; ++brick) {
    EXPECT_EQ(rebuilt.server_for(brick), original.server_for(brick));
    EXPECT_EQ(rebuilt.slot_for(brick), original.slot_for(brick));
  }
}

TEST(FromBrickListsTest, RejectsInconsistentLists) {
  // Missing brick.
  EXPECT_FALSE(BrickDistribution::FromBrickLists(4, {{0, 1}, {2}}).ok());
  // Duplicate brick.
  EXPECT_FALSE(BrickDistribution::FromBrickLists(4, {{0, 1}, {1, 2, 3}}).ok());
  // Out-of-range brick.
  EXPECT_FALSE(BrickDistribution::FromBrickLists(4, {{0, 1}, {2, 7}}).ok());
  // A brick count far beyond the lists (a metadata frame's claim) is
  // refused before it sizes the per-brick tables.
  EXPECT_EQ(
      BrickDistribution::FromBrickLists(1ull << 50, {{0}}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(DistributionPropertyTest, EveryBrickAssignedExactlyOnce) {
  for (const std::uint32_t servers : {1u, 3u, 7u}) {
    std::vector<std::uint32_t> perf(servers);
    for (std::uint32_t s = 0; s < servers; ++s) perf[s] = 1 + s % 3;
    const BrickDistribution dist =
        BrickDistribution::Greedy(101, perf).value();
    std::size_t total = 0;
    for (ServerId s = 0; s < servers; ++s) total += dist.bricks_on(s).size();
    EXPECT_EQ(total, 101u);
  }
}

}  // namespace
}  // namespace dpfs::layout
