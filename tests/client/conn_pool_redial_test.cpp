// Pool eviction × retry/backoff across a server restart: idle pooled
// connections to a restarted server are stale, and Acquire must probe and
// redial (counting `conn_pool.redials`) instead of handing the dead stream
// to a caller. The metadata client's pool is covered across a metad restart
// in tests/integration/metad_chaos_test.cpp.
#include "client/conn_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "core/cluster.h"
#include "server/io_server.h"

namespace dpfs::client {
namespace {

metrics::Counter& Redials() {
  return metrics::GetCounter("conn_pool.redials");
}

metrics::Counter& SessionsAccepted() {
  return metrics::GetCounter("io_server.sessions_accepted");
}

class ConnPoolRedialTest : public ::testing::Test {
 protected:
  ConnPoolRedialTest() : dir_(TempDir::Create("dpfs-redial").value()) {
    server_ = StartServer(0);
  }

  std::unique_ptr<server::IoServer> StartServer(std::uint16_t port) {
    server::ServerOptions options;
    options.root_dir = dir_.path();
    options.port = port;
    return server::IoServer::Start(std::move(options)).value();
  }

  /// Stops the server and brings a replacement up on the same port, like a
  /// workstation reboot. Idle pooled connections all go stale.
  void RestartServer() {
    const std::uint16_t port = server_->endpoint().port;
    server_->Stop();
    server_.reset();
    server_ = StartServer(port);
  }

  TempDir dir_;
  std::unique_ptr<server::IoServer> server_;
  ConnectionPool pool_;
};

TEST_F(ConnPoolRedialTest, StalePooledConnectionIsEvictedAndRedialed) {
  {
    PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
    ASSERT_TRUE(conn->Ping().ok());
  }
  ASSERT_EQ(pool_.idle_count(), 1u);

  const std::uint64_t redials_before = Redials().value();
  RestartServer();
  const std::uint64_t accepted_before = SessionsAccepted().value();
  // Give the dead server's FIN time to reach the pooled socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
  EXPECT_TRUE(conn->Ping().ok());  // fresh stream, not the stale one
  EXPECT_EQ(Redials().value() - redials_before, 1u);
  // The restarted server's only session.
  EXPECT_EQ(SessionsAccepted().value() - accepted_before, 1u);
}

TEST_F(ConnPoolRedialTest, HealthyPooledConnectionIsNotRedialed) {
  const std::uint64_t accepted_before = SessionsAccepted().value();
  {
    PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
    ASSERT_TRUE(conn->Ping().ok());
  }
  const std::uint64_t redials_before = Redials().value();
  PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
  EXPECT_TRUE(conn->Ping().ok());
  EXPECT_EQ(Redials().value(), redials_before);
  EXPECT_EQ(SessionsAccepted().value() - accepted_before, 1u);  // pool hit
}

// Retry/backoff composed with pool eviction, through the full client: a
// server restart mid-workload leaves the FileSystem's pooled connections
// stale; follow-up accesses must evict, redial, and (with retries) succeed
// without surfacing an error.
TEST(RetryPoolEvictionTest, RestartedServerIsRedialedUnderRetries) {
  core::ClusterOptions options;
  options.num_servers = 2;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  auto fs = cluster->fs();

  client::CreateOptions create;
  create.total_bytes = 16 * 1024;
  create.brick_bytes = 4 * 1024;
  client::FileHandle handle = fs->Create("/evict.bin", create).value();
  const Bytes data(16 * 1024, 0x3C);
  ASSERT_TRUE(fs->WriteBytes(handle, 0, data).ok());  // pools connections

  const std::uint64_t redials_before = Redials().value();
  ASSERT_TRUE(cluster->RestartServer(0).ok());
  ASSERT_TRUE(cluster->RestartServer(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Bytes read(16 * 1024);
  client::IoOptions io;
  io.max_retries = 10;  // spans any straggling accept-loop startup
  client::IoReport report;
  ASSERT_TRUE(fs->ReadBytes(handle, 0, read, io, &report).ok());
  EXPECT_EQ(read, data);
  // Both servers' pooled connections were stale: the pool redialed rather
  // than burning the caller's retry budget on dead streams.
  EXPECT_GE(Redials().value() - redials_before, 2u);
}

}  // namespace
}  // namespace dpfs::client
