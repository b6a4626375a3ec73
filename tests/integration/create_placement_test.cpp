// FileSystem::Create is one metadata call: the metadata service reads
// DPFS_SERVER, draws the subfile id and places every rank. These tests pin
// that the placement is exactly layout::ReplicatedDistribution::Create's on
// the registered servers, for every policy and replication factor, embedded
// and through dpfs-metad, and that the record Create returns is the one
// LookupFile returns next.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "layout/replication.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileRecord;
using client::ServerInfo;

constexpr std::uint64_t kBrickBytes = 64;
constexpr std::uint64_t kBricks = 24;

void ExpectSameDistribution(const layout::BrickDistribution& a,
                            const layout::BrickDistribution& b) {
  ASSERT_EQ(a.num_servers(), b.num_servers());
  ASSERT_EQ(a.num_bricks(), b.num_bricks());
  for (std::uint32_t server = 0; server < a.num_servers(); ++server) {
    EXPECT_EQ(a.bricks_on(server), b.bricks_on(server)) << "server " << server;
  }
  for (layout::BrickId brick = 0; brick < a.num_bricks(); ++brick) {
    EXPECT_EQ(a.server_for(brick), b.server_for(brick)) << "brick " << brick;
    EXPECT_EQ(a.slot_for(brick), b.slot_for(brick)) << "brick " << brick;
  }
}

void ExpectSameServers(const std::vector<ServerInfo>& a,
                       const std::vector<ServerInfo>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].endpoint.ToString(), b[i].endpoint.ToString());
    EXPECT_EQ(a[i].capacity_bytes, b[i].capacity_bytes);
    EXPECT_EQ(a[i].performance, b[i].performance);
  }
}

void ExpectSameRecord(const FileRecord& a, const FileRecord& b) {
  EXPECT_EQ(a.meta.path, b.meta.path);
  EXPECT_EQ(a.meta.subfile, b.meta.subfile);
  EXPECT_EQ(a.meta.owner, b.meta.owner);
  EXPECT_EQ(a.meta.permission, b.meta.permission);
  EXPECT_EQ(a.meta.size_bytes, b.meta.size_bytes);
  EXPECT_EQ(a.meta.level, b.meta.level);
  EXPECT_EQ(a.meta.element_size, b.meta.element_size);
  EXPECT_EQ(a.meta.array_shape, b.meta.array_shape);
  EXPECT_EQ(a.meta.brick_bytes, b.meta.brick_bytes);
  EXPECT_EQ(a.meta.brick_shape, b.meta.brick_shape);
  EXPECT_EQ(a.meta.pattern.has_value(), b.meta.pattern.has_value());
  EXPECT_EQ(a.meta.chunk_grid, b.meta.chunk_grid);
  ExpectSameServers(a.servers, b.servers);
  ASSERT_EQ(a.replication(), b.replication());
  for (std::uint32_t rank = 0; rank < a.replication(); ++rank) {
    ExpectSameDistribution(a.rank_distribution(rank),
                           b.rank_distribution(rank));
  }
}

/// Parameter: true = through an in-process dpfs-metad, false = embedded.
class CreatePlacementTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 4;
    options.performance = {1, 3, 1, 3};
    // 20 bricks each: the capacity-aware placement of R = 3 copies of 24
    // bricks (72 of 80 slots) cannot follow the greedy costs alone.
    options.capacity_bytes = 20 * kBrickBytes;
    options.start_metadata_service = GetParam();
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
};

TEST_P(CreatePlacementTest, RanksAreReplicatedDistributionCreate) {
  client::FileSystem& fs = *cluster_->fs();
  const std::vector<ServerInfo> registered =
      fs.metadata().ListServers().value();
  int file = 0;
  for (const layout::PlacementPolicy policy :
       {layout::PlacementPolicy::kRoundRobin, layout::PlacementPolicy::kGreedy,
        layout::PlacementPolicy::kCapacityAware}) {
    for (std::uint32_t factor = 1; factor <= 3; ++factor) {
      for (const std::uint32_t io_nodes : {0u, 3u}) {
        const std::string path = "/placed-" + std::to_string(file++);
        SCOPED_TRACE(path + " " + std::string(PlacementPolicyName(policy)) +
                     " R=" + std::to_string(factor) +
                     " io_nodes=" + std::to_string(io_nodes));
        CreateOptions create;
        create.total_bytes = kBricks * kBrickBytes;
        create.brick_bytes = kBrickBytes;
        create.placement = policy;
        create.suggested_io_nodes = io_nodes;
        create.replication = factor;
        if (io_nodes == 0) create.failure_domains = {0, 1, 2, 0};

        // What the placement must be: the first io_nodes registered
        // servers, placed by ReplicatedDistribution::Create on their
        // performance numbers and whole-brick capacities.
        const std::vector<ServerInfo> servers(
            registered.begin(),
            registered.begin() + (io_nodes == 0 ? registered.size() : io_nodes));
        std::vector<std::uint32_t> performance;
        std::vector<std::uint64_t> capacity_bricks;
        for (const ServerInfo& server : servers) {
          performance.push_back(server.performance);
          capacity_bricks.push_back(server.capacity_bytes / kBrickBytes);
        }
        const Result<layout::ReplicatedDistribution> expected =
            layout::ReplicatedDistribution::Create(
                policy, kBricks, performance,
                {.factor = factor, .domains = create.failure_domains},
                capacity_bricks);
        const Result<client::FileHandle> handle = fs.Create(path, create);
        if (!expected.ok()) {
          // Three servers' 60 slots cannot hold 72 capacity-aware copies.
          EXPECT_EQ(handle.status().code(), expected.status().code());
          EXPECT_FALSE(fs.metadata().FileExists(path).value());
          continue;
        }
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        const FileRecord& created = handle.value().record;
        ExpectSameServers(created.servers, servers);
        ASSERT_EQ(created.replication(), factor);
        for (std::uint32_t rank = 0; rank < factor; ++rank) {
          ExpectSameDistribution(created.rank_distribution(rank),
                                 expected.value().rank(rank));
        }
        EXPECT_EQ(handle.value().map.num_bricks(), kBricks);
        ExpectSameRecord(created, fs.metadata().LookupFile(path).value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metadata, CreatePlacementTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Metad" : "Embedded";
                         });

}  // namespace
}  // namespace dpfs
