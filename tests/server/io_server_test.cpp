// A live IoServer on loopback, driven through ServerConnection.
#include "server/io_server.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/temp_dir.h"
#include "net/connection.h"

namespace dpfs::server {
namespace {

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class IoServerTest : public ::testing::Test {
 protected:
  IoServerTest() : dir_(TempDir::Create("dpfs-server").value()) {
    ServerOptions options;
    options.root_dir = dir_.path();
    server_ = IoServer::Start(std::move(options)).value();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  net::ServerConnection Connect() {
    return net::ServerConnection::Connect(server_->endpoint()).value();
  }

  TempDir dir_;
  std::unique_ptr<IoServer> server_;
};

TEST_F(IoServerTest, Ping) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, WriteThenRead) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  const Bytes data = conn.Read("/data", {{2, 4}}).value();
  EXPECT_EQ(data, (Bytes{3, 4, 5, 6}));
}

TEST_F(IoServerTest, MultiFragmentReadConcatenates) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{10, 11, 12, 13, 14, 15}});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  const Bytes data = conn.Read("/f", {{4, 2}, {0, 2}}).value();
  EXPECT_EQ(data, (Bytes{14, 15, 10, 11}));
}

TEST_F(IoServerTest, StatAndDelete) {
  net::ServerConnection conn = Connect();
  EXPECT_FALSE(conn.Stat("/f").value().exists);
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3}});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  const net::StatReply stat = conn.Stat("/f").value();
  EXPECT_TRUE(stat.exists);
  EXPECT_EQ(stat.size, 3u);
  EXPECT_TRUE(conn.Delete("/f").ok());
  EXPECT_FALSE(conn.Stat("/f").value().exists);
  EXPECT_EQ(conn.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(IoServerTest, Truncate) {
  net::ServerConnection conn = Connect();
  ASSERT_TRUE(conn.Truncate("/f", 512).ok());
  EXPECT_EQ(conn.Stat("/f").value().size, 512u);
}

TEST_F(IoServerTest, PathEscapeReturnsErrorNotCrash) {
  net::ServerConnection conn = Connect();
  const Result<Bytes> data = conn.Read("/../../etc/passwd", {{0, 4}});
  EXPECT_FALSE(data.ok());
  // The connection survives the error reply.
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Result<net::ServerConnection> conn =
          net::ServerConnection::Connect(server_->endpoint());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      net::ServerConnection connection = std::move(conn).value();
      const std::string subfile = "/client" + std::to_string(c);
      for (int op = 0; op < kOpsPerClient; ++op) {
        Bytes payload(256, static_cast<std::uint8_t>(c * 16 + op));
        std::vector<net::WriteFragment> writes;
        writes.push_back({static_cast<std::uint64_t>(op) * 256, payload});
        if (!connection.Write(subfile, std::move(writes)).ok()) {
          failures.fetch_add(1);
          return;
        }
        const Result<Bytes> read =
            connection.Read(subfile,
                            {{static_cast<std::uint64_t>(op) * 256, 256}});
        if (!read.ok() || read.value() != payload) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->stats().sessions_accepted.load(), 8u);
}

TEST_F(IoServerTest, StatsCountBytes) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(1000, 1)});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  ASSERT_TRUE(conn.Read("/f", {{0, 400}}).ok());
  EXPECT_EQ(server_->stats().bytes_written.load(), 1000u);
  EXPECT_EQ(server_->stats().bytes_read.load(), 400u);
  EXPECT_GE(server_->stats().requests.load(), 2u);
}

TEST_F(IoServerTest, StatsRpcReportsCounters) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(500, 3)});
  ASSERT_TRUE(conn.Write("/s", std::move(writes)).ok());
  ASSERT_TRUE(conn.Read("/s", {{0, 200}}).ok());

  const net::StatsReply stats = conn.Stats().value();
  EXPECT_EQ(stats.bytes_written, 500u);
  EXPECT_EQ(stats.bytes_read, 200u);
  EXPECT_GE(stats.requests, 3u);  // write + read + stats
  EXPECT_GE(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.stored_bytes, 500u);
  // The fd cache served the read without a second open.
  EXPECT_GE(stats.fd_cache_hits, 1u);
  EXPECT_GE(stats.fd_cache_misses, 1u);
}

TEST_F(IoServerTest, StopIsIdempotentAndUnblocksClients) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
  server_->Stop();
  server_->Stop();  // second call must be safe
  // New connections are refused after stop.
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

TEST_F(IoServerTest, ShutdownMessageStopsAccepting) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Shutdown().ok());
  // Give the accept loop a moment to wind down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

TEST_F(IoServerTest, AllOpcodesRoundTrip) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());

  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  EXPECT_EQ(conn.Read("/data", {{2, 4}}).value(), (Bytes{3, 4, 5, 6}));

  const net::StatReply stat = conn.Stat("/data").value();
  EXPECT_TRUE(stat.exists);
  EXPECT_EQ(stat.size, 8u);
  EXPECT_TRUE(conn.Truncate("/data", 4).ok());
  EXPECT_TRUE(conn.Rename("/data", "/renamed").ok());
  const std::vector<net::SubfileInfo> listing = conn.List().value();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].name, "/renamed");
  EXPECT_EQ(listing[0].size, 4u);
  EXPECT_TRUE(conn.Delete("/renamed").ok());

  const net::StatsReply stats = conn.Stats().value();
  EXPECT_GE(stats.requests, 8u);
  EXPECT_GE(stats.sessions_accepted, 1u);
  const std::string metrics_text = conn.Metrics().value();
  EXPECT_NE(metrics_text.find("io_server.requests.rename"), std::string::npos);
}

TEST_F(IoServerTest, InflightGaugeTracksSessions) {
  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  const std::int64_t baseline = inflight.value();
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Ping().ok());  // serving for sure once replied
    EXPECT_GE(inflight.value(), baseline + 1);
  }
  // The session notices the disconnect asynchronously.
  EXPECT_TRUE(WaitFor([&] { return inflight.value() <= baseline; }));
}

TEST_F(IoServerTest, FailpointBusyStormRejectsEverySession) {
  failpoint::Spec busy;
  busy.action = failpoint::Action::kBusy;
  failpoint::Arm("server.session", busy);
  net::ServerConnection conn = Connect();
  EXPECT_EQ(conn.Ping().code(), StatusCode::kResourceExhausted);
  failpoint::DisarmAll();
  net::ServerConnection after = Connect();
  EXPECT_TRUE(after.Ping().ok());
}

TEST_F(IoServerTest, SubfilesLandUnderServerRoot) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1}});
  ASSERT_TRUE(conn.Write("/home/user/file.dpfs", std::move(writes)).ok());
  EXPECT_TRUE(
      std::filesystem::exists(dir_.path() / "home/user/file.dpfs"));
}

// Stop() must cut only the stopping server's own live sessions. A finished
// session's fd number is free for reuse by the next socket the process
// opens, here the connections to a second server in the same process.
TEST(IoServerStopTest, StopLeavesReusedDescriptorsAlone) {
  constexpr int kSessions = 8;
  const TempDir dir = TempDir::Create("dpfs-stale-fd").value();
  ServerOptions a_options;
  a_options.root_dir = dir.path() / "a";
  std::unique_ptr<IoServer> a = IoServer::Start(std::move(a_options)).value();
  ServerOptions b_options;
  b_options.root_dir = dir.path() / "b";
  std::unique_ptr<IoServer> b = IoServer::Start(std::move(b_options)).value();

  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  const std::int64_t baseline = inflight.value();
  for (int i = 0; i < kSessions; ++i) {
    net::ServerConnection conn =
        net::ServerConnection::Connect(a->endpoint()).value();
    ASSERT_TRUE(conn.Ping().ok());
  }
  ASSERT_TRUE(WaitFor([&] { return inflight.value() <= baseline; }));
  // The gauge drops just before each session's socket closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<net::ServerConnection> to_b;
  for (int i = 0; i < kSessions; ++i) {
    to_b.push_back(net::ServerConnection::Connect(b->endpoint()).value());
    ASSERT_TRUE(to_b.back().Ping().ok());
  }
  a->Stop();
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(to_b[static_cast<std::size_t>(i)].Ping().ok())
        << "connection " << i << " to the other server was cut";
  }
}

// Periodic metrics dump (docs/OBSERVABILITY.md).

TEST(MetricsDumpTest, WritesSnapshotsWhileRunningAndOnStop) {
  const TempDir dir = TempDir::Create("dpfs-dump").value();
  const std::filesystem::path path = dir.path() / "snap.txt";
  ServerOptions options;
  options.root_dir = dir.path() / "root";
  options.metrics_dump_interval = std::chrono::milliseconds(10);
  options.metrics_dump_path = path;
  std::unique_ptr<IoServer> server =
      IoServer::Start(std::move(options)).value();

  net::ServerConnection conn =
      net::ServerConnection::Connect(server->endpoint()).value();
  ASSERT_TRUE(conn.Ping().ok());
  ASSERT_TRUE(WaitFor([&] { return std::filesystem::exists(path); }));
  server->Stop();  // final snapshot lands before Stop returns

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  EXPECT_NE(text.find("counter io_server.requests.ping"), std::string::npos);
  EXPECT_NE(text.find("gauge io_server.inflight_sessions"),
            std::string::npos);
  // Atomic publication: the tmp file never lingers.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(MetricsDumpTest, DefaultsToMetricsTxtUnderRoot) {
  const TempDir dir = TempDir::Create("dpfs-dump2").value();
  ServerOptions options;
  options.root_dir = dir.path();
  options.metrics_dump_interval = std::chrono::milliseconds(10);
  std::unique_ptr<IoServer> server =
      IoServer::Start(std::move(options)).value();
  server->Stop();
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "metrics.txt"));
}

}  // namespace
}  // namespace dpfs::server
