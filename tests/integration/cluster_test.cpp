#include "core/cluster.h"

#include <gtest/gtest.h>

namespace dpfs::core {
namespace {

TEST(LocalClusterTest, StartsAndRegistersServers) {
  ClusterOptions options;
  options.num_servers = 3;
  const auto cluster = LocalCluster::Start(std::move(options)).value();
  EXPECT_EQ(cluster->num_servers(), 3u);
  const auto servers = cluster->fs()->metadata().ListServers().value();
  ASSERT_EQ(servers.size(), 3u);
  // Names are zero-padded so sorted order matches server indices.
  EXPECT_EQ(servers[0].name, "ionode000.dpfs.local");
  EXPECT_EQ(servers[0].endpoint.port, cluster->server(0).endpoint().port);
}

TEST(LocalClusterTest, PerformanceNumbersPropagate) {
  ClusterOptions options;
  options.num_servers = 2;
  options.performance = {1, 3};
  const auto cluster = LocalCluster::Start(std::move(options)).value();
  const auto servers = cluster->fs()->metadata().ListServers().value();
  EXPECT_EQ(servers[0].performance, 1u);
  EXPECT_EQ(servers[1].performance, 3u);
}

TEST(LocalClusterTest, MismatchedPerformanceVectorRejected) {
  ClusterOptions options;
  options.num_servers = 2;
  options.performance = {1, 2, 3};
  EXPECT_FALSE(LocalCluster::Start(std::move(options)).ok());
}

TEST(LocalClusterTest, ZeroServersRejected) {
  ClusterOptions options;
  options.num_servers = 0;
  EXPECT_FALSE(LocalCluster::Start(std::move(options)).ok());
}

TEST(LocalClusterTest, RetiredLookupCacheTtlRejected) {
  // The client keeps no lookup cache, so a TTL other than 0 is refused
  // rather than ignored, with embedded metadata and with a metad.
  for (const bool metad : {false, true}) {
    ClusterOptions options;
    options.num_servers = 1;
    options.start_metadata_service = metad;
    options.metadata_cache_ttl = std::chrono::milliseconds(250);
    const auto cluster = LocalCluster::Start(std::move(options));
    ASSERT_FALSE(cluster.ok()) << "metad " << metad;
    EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(LocalClusterTest, StopIsIdempotent) {
  ClusterOptions options;
  options.num_servers = 2;
  auto cluster = LocalCluster::Start(std::move(options)).value();
  cluster->Stop();
  cluster->Stop();
}

TEST(LocalClusterTest, DurableMetadataSurvivesClusterRestart) {
  const TempDir root = TempDir::Create("dpfs-durable").value();
  {
    ClusterOptions options;
    options.num_servers = 2;
    options.root_dir = root.path();
    options.durable_metadata = true;
    auto cluster = LocalCluster::Start(std::move(options)).value();
    client::CreateOptions create;
    create.total_bytes = 1000;
    create.brick_bytes = 100;
    auto handle = cluster->fs()->Create("/persist.bin", create).value();
    const Bytes data(1000, 0x5A);
    ASSERT_TRUE(cluster->fs()->WriteBytes(handle, 0, data).ok());
  }
  // Restart on the same root: servers re-register under the same names
  // (fresh ports) and the file metadata survives.
  {
    ClusterOptions options;
    options.num_servers = 2;
    options.root_dir = root.path();
    options.durable_metadata = true;
    const auto cluster = LocalCluster::Start(std::move(options)).value();
    const auto attr = cluster->db()
                          ->Execute(
                              "SELECT size FROM DPFS_FILE_ATTR WHERE "
                              "filename = '/persist.bin'")
                          .value();
    ASSERT_EQ(attr.size(), 1u);
    EXPECT_EQ(attr.GetInt(0, "size").value(), 1000);
    // No duplicated server rows.
    const auto servers = cluster->fs()->metadata().ListServers().value();
    EXPECT_EQ(servers.size(), 2u);
  }
}

TEST(LocalClusterTest, ServersShareNothing) {
  ClusterOptions options;
  options.num_servers = 2;
  const auto cluster = LocalCluster::Start(std::move(options)).value();
  // Write through server 0's store directly and confirm server 1 can't see
  // it — each I/O node owns its own subfile root.
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  Bytes scratch;
  ASSERT_TRUE(cluster->server(0)
                  .store()
                  .WriteFragments("/x", writes, false, scratch)
                  .ok());
  EXPECT_EQ(cluster->server(0).store().ListSubfiles().value(),
            (std::vector<net::SubfileInfo>{{"/x", 3}}));
  EXPECT_TRUE(cluster->server(1).store().ListSubfiles().value().empty());
}

}  // namespace
}  // namespace dpfs::core
