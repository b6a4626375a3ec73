// Full-stack durability: a durable cluster is stopped and restarted on the
// same roots (servers come back on fresh ports, re-registering like dpfsd
// does); file data and metadata must survive the round trip.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

core::ClusterOptions DurableOptions(const std::filesystem::path& root) {
  core::ClusterOptions options;
  options.num_servers = 3;
  options.root_dir = root;
  options.durable_metadata = true;
  return options;
}

TEST(DurabilityTest, FullClusterRestartPreservesFiles) {
  const TempDir root = TempDir::Create("dpfs-durability").value();
  const Bytes linear_data = PatternBytes(8000, 1);
  const Bytes grid_data = PatternBytes(48 * 48, 2);

  {
    auto cluster = core::LocalCluster::Start(DurableOptions(root.path())).value();
    auto fs = cluster->fs();
    ASSERT_TRUE(fs->metadata().MakeDirectory("/data").ok());

    CreateOptions linear;
    linear.total_bytes = 8000;
    linear.brick_bytes = 512;
    FileHandle lin = fs->Create("/data/linear.bin", linear).value();
    ASSERT_TRUE(fs->WriteBytes(lin, 0, linear_data).ok());

    CreateOptions grid;
    grid.level = layout::FileLevel::kMultidim;
    grid.array_shape = {48, 48};
    grid.brick_shape = {16, 16};
    FileHandle g = fs->Create("/data/grid.dpfs", grid).value();
    ASSERT_TRUE(fs->WriteRegion(g, {{0, 0}, {48, 48}}, grid_data).ok());
  }  // cluster torn down: servers stopped, database closed

  {
    auto cluster = core::LocalCluster::Start(DurableOptions(root.path())).value();
    auto fs = cluster->fs();

    // Directory tree and attributes recovered through WAL replay.
    const auto listing = fs->metadata().ListDirectory("/data").value();
    ASSERT_EQ(listing.files.size(), 2u);

    FileHandle lin = fs->Open("/data/linear.bin").value();
    EXPECT_EQ(lin.meta().size_bytes, 8000u);
    Bytes restored(8000);
    ASSERT_TRUE(fs->ReadBytes(lin, 0, restored).ok());
    EXPECT_EQ(restored, linear_data);

    FileHandle g = fs->Open("/data/grid.dpfs").value();
    Bytes grid_restored(48 * 48);
    ASSERT_TRUE(fs->ReadRegion(g, {{0, 0}, {48, 48}}, grid_restored).ok());
    EXPECT_EQ(grid_restored, grid_data);

    // And the restarted cluster is fully writable.
    Bytes update(100, 0xCC);
    ASSERT_TRUE(fs->WriteBytes(lin, 4000, update).ok());
    Bytes check(100);
    ASSERT_TRUE(fs->ReadBytes(lin, 4000, check).ok());
    EXPECT_EQ(check, update);
  }
}

TEST(DurabilityTest, RestartedClusterReflectsNewPorts) {
  const TempDir root = TempDir::Create("dpfs-reregister").value();
  std::uint16_t old_port = 0;
  {
    auto cluster = core::LocalCluster::Start(DurableOptions(root.path())).value();
    old_port = cluster->server(0).endpoint().port;
  }
  auto cluster = core::LocalCluster::Start(DurableOptions(root.path())).value();
  const auto servers = cluster->fs()->metadata().ListServers().value();
  ASSERT_EQ(servers.size(), 3u);
  // Registration was replaced, not duplicated; port matches the live server.
  EXPECT_EQ(servers[0].endpoint.port, cluster->server(0).endpoint().port);
  (void)old_port;  // ports may even collide; liveness is what matters:
  auto conn = cluster->fs()->connections().Acquire(servers[0].endpoint);
  ASSERT_TRUE(conn.ok());
  EXPECT_TRUE(conn.value()->Ping().ok());
}

TEST(DurabilityTest, GreedyBricklistsSurviveRestart) {
  const TempDir root = TempDir::Create("dpfs-greedy-durable").value();
  core::ClusterOptions options = DurableOptions(root.path());
  options.performance = {1, 3, 3};
  std::vector<std::vector<layout::BrickId>> original(3);
  {
    auto cluster = core::LocalCluster::Start(std::move(options)).value();
    client::CreateOptions create;
    create.total_bytes = 64 * 1024;
    create.brick_bytes = 1024;
    create.placement = layout::PlacementPolicy::kGreedy;
    const FileHandle handle =
        cluster->fs()->Create("/skewed.bin", create).value();
    for (layout::ServerId s = 0; s < 3; ++s) {
      original[s] = handle.record.distribution.bricks_on(s);
    }
  }
  core::ClusterOptions reopened = DurableOptions(root.path());
  reopened.performance = {1, 3, 3};
  auto cluster = core::LocalCluster::Start(std::move(reopened)).value();
  const FileHandle handle = cluster->fs()->Open("/skewed.bin").value();
  for (layout::ServerId s = 0; s < 3; ++s) {
    EXPECT_EQ(handle.record.distribution.bricks_on(s), original[s]);
  }
}

}  // namespace
}  // namespace dpfs
