// Failure injection: dead servers, poisoned connections, metadata
// consistency after partial failures.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

/// A read's reply body, copied out of its frame for comparison.
Result<Bytes> ReadBack(net::ServerConnection& conn, const std::string& subfile,
                       const std::vector<net::ReadFragment>& fragments) {
  DPFS_ASSIGN_OR_RETURN(const net::ReplyFrame reply,
                        conn.Read(subfile, fragments));
  return Bytes(reply.body().begin(), reply.body().end());
}


using client::CreateOptions;
using client::FileHandle;

TEST(FailureTest, IoAgainstStoppedServerReturnsUnavailable) {
  core::ClusterOptions options;
  options.num_servers = 2;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 1024;
  create.brick_bytes = 128;
  FileHandle handle = fs->Create("/doomed.bin", create).value();
  const Bytes data(1024, 7);
  ASSERT_TRUE(fs->WriteBytes(handle, 0, data).ok());

  // Kill both servers; connections are pooled, so also drop them.
  cluster->server(0).Stop();
  cluster->server(1).Stop();
  fs->connections().Clear();

  Bytes read(1024);
  const Status status = fs->ReadBytes(handle, 0, read);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(FailureTest, PooledConnectionToDeadServerIsNotReused) {
  core::ClusterOptions options;
  options.num_servers = 1;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 256;
  create.brick_bytes = 64;
  FileHandle handle = fs->Create("/f", create).value();
  ASSERT_TRUE(fs->WriteBytes(handle, 0, Bytes(256, 1)).ok());
  EXPECT_GE(fs->connections().idle_count(), 1u);

  cluster->server(0).Stop();
  // The pooled connection is now dead; the next op fails and the poisoned
  // connection must not be returned to the pool.
  Bytes read(256);
  EXPECT_FALSE(fs->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(fs->connections().idle_count(), 0u);
}

TEST(FailureTest, FilesOnHealthySubsetSurviveOtherServersDeath) {
  core::ClusterOptions options;
  options.num_servers = 4;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  // File confined to the first two servers via the hint structure.
  CreateOptions create;
  create.total_bytes = 2048;
  create.brick_bytes = 256;
  create.suggested_io_nodes = 2;
  FileHandle handle = fs->Create("/narrow.bin", create).value();
  const Bytes data(2048, 9);
  ASSERT_TRUE(fs->WriteBytes(handle, 0, data).ok());

  // Servers 2 and 3 die; the file never touched them.
  cluster->server(2).Stop();
  cluster->server(3).Stop();
  fs->connections().Clear();

  Bytes read(2048);
  ASSERT_TRUE(fs->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST(FailureTest, MetadataSurvivesFailedCreateOnDeadCluster) {
  core::ClusterOptions options;
  options.num_servers = 2;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 512;
  FileHandle ok_handle = fs->Create("/ok.bin", create).value();
  (void)ok_handle;

  // Creation itself only touches metadata, so it succeeds even with dead
  // servers — data operations are what fail. Verify metadata stays sane.
  cluster->server(0).Stop();
  cluster->server(1).Stop();
  fs->connections().Clear();
  ASSERT_TRUE(fs->Create("/late.bin", create).ok());
  EXPECT_TRUE(fs->metadata().FileExists("/late.bin").value());
  FileHandle late = fs->Open("/late.bin").value();
  EXPECT_FALSE(fs->WriteBytes(late, 0, Bytes(512, 1)).ok());
  // Remove commits the metadata first, so it succeeds with every server
  // down; each (server, rank) subfile delete it could not send is counted
  // as an orphan for fsck, never left as a live file with holes.
  const metrics::Counter& orphaned =
      metrics::GetCounter("client.orphaned_subfiles");
  const std::uint64_t orphaned_before = orphaned.value();
  ASSERT_TRUE(fs->Remove("/late.bin").ok());
  EXPECT_FALSE(fs->metadata().FileExists("/late.bin").value());
  EXPECT_EQ(orphaned.value() - orphaned_before, 2u);
}

TEST(FailureTest, CorruptedSubfileStillServesReadsByteForByte) {
  // DPFS stores raw bytes in subfiles; an out-of-band mutation of a subfile
  // (bit rot, operator error) shows up as wrong data, not a crash. This
  // documents the trust model: integrity is protected on the wire (frame
  // CRC), not at rest.
  core::ClusterOptions options;
  options.num_servers = 1;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 64;
  create.brick_bytes = 64;
  FileHandle handle = fs->Create("/rot.bin", create).value();
  ASSERT_TRUE(fs->WriteBytes(handle, 0, Bytes(64, 0xAA)).ok());

  // Flip a byte directly in the subfile behind the server's back.
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{0x55};
  writes.emplace_back(10, bytes);
  Bytes scratch;
  ASSERT_TRUE(cluster->server(0)
                  .store()
                  .WriteFragments(handle.meta().subfile, writes, false, scratch)
                  .ok());

  Bytes read(64);
  ASSERT_TRUE(fs->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read[10], 0x55);
  EXPECT_EQ(read[9], 0xAA);
}

TEST(FailureTest, ServerRestartOnSameRootServesOldData) {
  const TempDir root = TempDir::Create("dpfs-restart").value();
  net::Endpoint endpoint;
  {
    server::ServerOptions options;
    options.root_dir = root.path();
    auto server = server::IoServer::Start(std::move(options)).value();
    endpoint = server->endpoint();
    auto conn = net::ServerConnection::Connect(endpoint).value();
    std::vector<net::WriteFragment> writes;
    const Bytes bytes{1, 2, 3, 4};
    writes.emplace_back(0, bytes);
    ASSERT_TRUE(conn.Write("/persist", std::move(writes)).ok());
    server->Stop();
  }
  // New server process (same root, new port): data still there.
  server::ServerOptions options;
  options.root_dir = root.path();
  auto server = server::IoServer::Start(std::move(options)).value();
  auto conn = net::ServerConnection::Connect(server->endpoint()).value();
  EXPECT_EQ(ReadBack(conn, "/persist", {{0, 4}}).value(), (Bytes{1, 2, 3, 4}));
}

}  // namespace
}  // namespace dpfs
