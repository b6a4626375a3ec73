#include "client/conn_pool.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "server/io_server.h"

namespace dpfs::client {
namespace {

class ConnPoolTest : public ::testing::Test {
 protected:
  ConnPoolTest() : dir_(TempDir::Create("dpfs-pool").value()) {
    server::ServerOptions options;
    options.root_dir = dir_.path();
    server_ = server::IoServer::Start(std::move(options)).value();
  }

  /// Sessions the server accepted since the fixture started it.
  std::uint64_t SessionsAccepted() const {
    return accepted_.value() - accepted_before_;
  }

  const metrics::Counter& accepted_ =
      metrics::GetCounter("io_server.sessions_accepted");
  const std::uint64_t accepted_before_ = accepted_.value();
  TempDir dir_;
  std::unique_ptr<server::IoServer> server_;
  ConnectionPool pool_;
};

TEST_F(ConnPoolTest, AcquireDialsThenReuses) {
  {
    PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
    EXPECT_TRUE(conn->Ping().ok());
  }  // returned to pool
  EXPECT_EQ(pool_.idle_count(), 1u);
  {
    PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
    EXPECT_TRUE(conn->Ping().ok());
    EXPECT_EQ(pool_.idle_count(), 0u);  // checked out
  }
  EXPECT_EQ(pool_.idle_count(), 1u);
  // Only one session was ever dialed.
  EXPECT_EQ(SessionsAccepted(), 1u);
}

TEST_F(ConnPoolTest, ConcurrentHoldersGetDistinctConnections) {
  {
    PooledConnection a = pool_.Acquire(server_->endpoint()).value();
    PooledConnection b = pool_.Acquire(server_->endpoint()).value();
    EXPECT_TRUE(a->Ping().ok());
    EXPECT_TRUE(b->Ping().ok());
  }
  EXPECT_EQ(pool_.idle_count(), 2u);
  EXPECT_EQ(SessionsAccepted(), 2u);
}

TEST_F(ConnPoolTest, PoisonedConnectionIsDropped) {
  {
    PooledConnection conn = pool_.Acquire(server_->endpoint()).value();
    conn.Poison();
  }
  EXPECT_EQ(pool_.idle_count(), 0u);
}

TEST_F(ConnPoolTest, ClearDropsIdleConnections) {
  { PooledConnection conn = pool_.Acquire(server_->endpoint()).value(); }
  EXPECT_EQ(pool_.idle_count(), 1u);
  pool_.Clear();
  EXPECT_EQ(pool_.idle_count(), 0u);
}

TEST_F(ConnPoolTest, AcquireFailsForDeadEndpoint) {
  const net::Endpoint endpoint = server_->endpoint();
  server_->Stop();
  const Result<PooledConnection> conn = pool_.Acquire(endpoint);
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

TEST_F(ConnPoolTest, ManyThreadsShareThePool) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Result<PooledConnection> conn = pool_.Acquire(server_->endpoint());
        if (!conn.ok() || !conn.value()->Ping().ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The pool bounded the number of dialed sessions to the peak concurrency.
  EXPECT_LE(SessionsAccepted(), 8u);
}

}  // namespace
}  // namespace dpfs::client
