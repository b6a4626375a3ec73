// A live IoServer on loopback, driven through ServerConnection.
#include "server/io_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <latch>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/temp_dir.h"
#include "net/connection.h"

namespace dpfs::server {
namespace {

/// How far one registry counter moved since construction. Each test's
/// server is the only one in the process, so that is the server's count.
class Delta {
 public:
  explicit Delta(const std::string& name)
      : counter_(metrics::GetCounter(name)), before_(counter_.value()) {}
  std::uint64_t operator()() const { return counter_.value() - before_; }

 private:
  const metrics::Counter& counter_;
  const std::uint64_t before_;
};

/// A read's reply body, copied out of its frame for comparison.
Result<Bytes> ReadBack(net::ServerConnection& conn, const std::string& subfile,
                       const std::vector<net::ReadFragment>& fragments) {
  DPFS_ASSIGN_OR_RETURN(const net::ReplyFrame reply,
                        conn.Read(subfile, fragments));
  return Bytes(reply.body().begin(), reply.body().end());
}

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
  const Bytes bytes{1, 2, 3, 4, 5, 6, 7, 8};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  const Bytes data = ReadBack(conn, "/data", {{2, 4}}).value();
  EXPECT_EQ(data, (Bytes{3, 4, 5, 6}));
}

TEST_F(IoServerTest, MultiFragmentReadConcatenates) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{10, 11, 12, 13, 14, 15};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  const Bytes data = ReadBack(conn, "/f", {{4, 2}, {0, 2}}).value();
  EXPECT_EQ(data, (Bytes{14, 15, 10, 11}));
}

TEST_F(IoServerTest, StatAndDelete) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  ASSERT_EQ(conn.List().value().size(), 1u);
  EXPECT_TRUE(conn.Delete("/f").ok());
  EXPECT_TRUE(conn.List().value().empty());
  EXPECT_EQ(conn.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(IoServerTest, ReadPastEofIsZeroAfterALargerRead) {
  // One session serves both reads, so the second reply can land in memory
  // the first one filled: every byte past the short subfile's end must
  // still read as zero.
  net::ServerConnection conn = Connect();
  const Bytes big(64 << 10, 0xAB);
  const Bytes small(100, 0xCD);
  std::vector<net::WriteFragment> writes;
  writes.emplace_back(0, big);
  ASSERT_TRUE(conn.Write("/big", writes).ok());
  writes = {{0, small}};
  ASSERT_TRUE(conn.Write("/small", writes).ok());

  EXPECT_EQ(ReadBack(conn, "/big", {{0, 64 << 10}}).value(), big);
  // A fragment straddling EOF, then one wholly past it.
  Bytes expected(50, 0xCD);
  expected.resize(50 + 150 + 64, 0);
  EXPECT_EQ(ReadBack(conn, "/small", {{50, 200}, {1000, 64}}).value(),
            expected);
}

// Each reply arrives in storage that is not zero-filled first, so a reply
// must hold exactly its own bytes whatever the one before it held.
TEST_F(IoServerTest, ReadsOfMixedSizesOnOneConnectionReturnEachExactly) {
  net::ServerConnection conn = Connect();
  constexpr std::uint64_t kMiB = 1 << 20;
  Bytes first(kMiB);
  Bytes second(kMiB);
  for (std::size_t i = 0; i < kMiB; ++i) {
    first[i] = static_cast<std::uint8_t>(i * 7 + 1);
    second[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  std::vector<net::WriteFragment> writes;
  writes.emplace_back(0, first);
  ASSERT_TRUE(conn.Write("/first", writes).ok());
  writes = {{0, second}};
  ASSERT_TRUE(conn.Write("/second", writes).ok());

  EXPECT_EQ(ReadBack(conn, "/first", {{0, kMiB}}).value(), first);
  EXPECT_EQ(ReadBack(conn, "/second", {{100, 16}}).value(),
            Bytes(second.begin() + 100, second.begin() + 116));
  EXPECT_EQ(ReadBack(conn, "/second", {{0, kMiB}}).value(), second);
}

// The sieve race. Eight writers put 256-byte runs at a 2048-byte stride
// into the same 16 slots of one subfile: writers 0-3 send one request per
// 4-slot brick, writers 4-7 one combined request, and each request is a
// sieved span, its runs 1792 bytes apart. A ninth writer meanwhile fills
// the gaps between the runs, one single-fragment request each, round after
// round. Each slot must end as one writer's whole run, and each gap as the
// ninth writer's last value: a gap write landing between a span's read and
// its write would be overwritten with the gap's old bytes.
constexpr std::size_t kRaceWriters = 8;
constexpr std::uint64_t kRaceSlots = 16;
constexpr std::uint64_t kRaceStride = 2048;
constexpr std::uint64_t kRaceRun = 256;
constexpr int kRaceGapRounds = 4;
constexpr int kRaceRepeats = 50;

using RaceWrite = std::function<Status(
    std::size_t writer, std::span<const net::WriteFragment> fragments)>;

/// Runs the nine writers once; the gap writer is number kRaceWriters.
Status RunSieveRace(const RaceWrite& write) {
  std::array<Status, kRaceWriters + 1> results;
  std::atomic<bool> gaps_done{false};
  std::latch start(kRaceWriters + 1);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kRaceWriters; ++w) {
    threads.emplace_back([&, w] {
      const Bytes run(kRaceRun, static_cast<std::uint8_t>(w + 1));
      const std::uint64_t slots_per_request = w < 4 ? 4 : kRaceSlots;
      std::vector<std::vector<net::WriteFragment>> requests;
      for (std::uint64_t slot = 0; slot < kRaceSlots; ++slot) {
        if (slot % slots_per_request == 0) requests.emplace_back();
        requests.back().emplace_back(slot * kRaceStride, run);
      }
      start.arrive_and_wait();
      do {
        for (const std::vector<net::WriteFragment>& request : requests) {
          results[w] = write(w, request);
          if (!results[w].ok()) return;
        }
      } while (!gaps_done.load());
    });
  }
  threads.emplace_back([&] {
    std::vector<Bytes> fills;
    for (int round = 0; round < kRaceGapRounds; ++round) {
      fills.emplace_back(kRaceStride - kRaceRun,
                         static_cast<std::uint8_t>(0x80 + round));
    }
    start.arrive_and_wait();
    for (const Bytes& fill : fills) {
      for (std::uint64_t slot = 0;
           slot < kRaceSlots && results[kRaceWriters].ok(); ++slot) {
        const net::WriteFragment gap(slot * kRaceStride + kRaceRun, fill);
        results[kRaceWriters] = write(kRaceWriters, {&gap, 1});
      }
    }
    gaps_done.store(true);
  });
  for (std::thread& thread : threads) thread.join();
  for (const Status& result : results) DPFS_RETURN_IF_ERROR(result);
  return Status::Ok();
}

/// How many bytes of a raced subfile differ from their last writer's.
std::uint64_t CountLostBytes(ByteSpan data) {
  std::uint64_t lost = 0;
  const auto last_gap_value =
      static_cast<std::uint8_t>(0x80 + kRaceGapRounds - 1);
  for (std::uint64_t slot = 0; slot < kRaceSlots; ++slot) {
    const ByteSpan run = data.subspan(slot * kRaceStride, kRaceRun);
    const ByteSpan gap =
        data.subspan(slot * kRaceStride + kRaceRun, kRaceStride - kRaceRun);
    const std::uint8_t owner = run.front();
    if (owner < 1 || owner > kRaceWriters) ++lost;
    lost += static_cast<std::uint64_t>(
        std::count_if(run.begin(), run.end(),
                      [&](std::uint8_t byte) { return byte != owner; }));
    lost += static_cast<std::uint64_t>(
        std::count_if(gap.begin(), gap.end(), [&](std::uint8_t byte) {
          return byte != last_gap_value;
        }));
  }
  return lost;
}

TEST_F(IoServerTest, SievedWriteRaceInTheStore) {
  SubfileStore& store = server_->store();
  int failed_repeats = 0;
  for (int repeat = 0; repeat < kRaceRepeats; ++repeat) {
    const std::string subfile = "/race" + std::to_string(repeat);
    // One span buffer per writer, as each session has its own.
    std::array<Bytes, kRaceWriters + 1> scratch;
    const RaceWrite write = [&](std::size_t writer,
                                std::span<const net::WriteFragment> fragments) {
      return store.WriteFragments(subfile, fragments, false, scratch[writer]);
    };
    ASSERT_TRUE(RunSieveRace(write).ok());
    Bytes data(kRaceSlots * kRaceStride);
    ASSERT_TRUE(
        store.ReadFragments(subfile, {{0, kRaceSlots * kRaceStride}}, data)
            .ok());
    if (CountLostBytes(data) != 0) ++failed_repeats;
  }
  EXPECT_EQ(failed_repeats, 0) << "of " << kRaceRepeats << " repeats";
}

TEST_F(IoServerTest, SievedWriteRaceOverTheWire) {
  std::vector<net::ServerConnection> conns;
  for (std::size_t i = 0; i <= kRaceWriters; ++i) conns.push_back(Connect());
  int failed_repeats = 0;
  for (int repeat = 0; repeat < kRaceRepeats; ++repeat) {
    const std::string subfile = "/race" + std::to_string(repeat);
    const RaceWrite write = [&](std::size_t writer,
                                std::span<const net::WriteFragment> fragments) {
      return conns[writer].Write(subfile, fragments);
    };
    ASSERT_TRUE(RunSieveRace(write).ok());
    const Bytes data =
        ReadBack(conns[0], subfile, {{0, kRaceSlots * kRaceStride}}).value();
    if (CountLostBytes(data) != 0) ++failed_repeats;
  }
  EXPECT_EQ(failed_repeats, 0) << "of " << kRaceRepeats << " repeats";
}

TEST_F(IoServerTest, PathEscapeReturnsErrorNotCrash) {
  net::ServerConnection conn = Connect();
  const Result<Bytes> data = ReadBack(conn, "/../../etc/passwd", {{0, 4}});
  EXPECT_FALSE(data.ok());
  // The connection survives the error reply.
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, ConcurrentClients) {
  const Delta accepted("io_server.sessions_accepted");
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
            ReadBack(connection, subfile,
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
  EXPECT_GE(accepted(), 8u);
}

TEST_F(IoServerTest, StatsCountBytes) {
  const Delta bytes_written("subfile_store.bytes_written");
  const Delta bytes_read("subfile_store.bytes_read");
  const Delta write_requests("io_server.requests.write");
  const Delta read_requests("io_server.requests.read");
  const Delta fd_misses("fd_cache.misses");
  const Delta fd_hits("fd_cache.hits");
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(1000, 1);
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  ASSERT_TRUE(ReadBack(conn, "/f", {{0, 400}}).ok());
  EXPECT_EQ(bytes_written(), 1000u);
  EXPECT_EQ(bytes_read(), 400u);
  EXPECT_EQ(write_requests(), 1u);
  EXPECT_EQ(read_requests(), 1u);
  // The fd cache opened the subfile for the write and served the read
  // without a second open.
  EXPECT_EQ(fd_misses(), 1u);
  EXPECT_EQ(fd_hits(), 1u);
}

TEST_F(IoServerTest, StopIsIdempotentAndUnblocksClients) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
  server_->Stop();
  server_->Stop();  // second call must be safe
  // New connections are refused after stop.
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

TEST_F(IoServerTest, AllOpcodesRoundTrip) {
  const Delta accepted("io_server.sessions_accepted");
  std::vector<std::pair<std::string, Delta>> served;
  for (const char* op : {"ping", "write", "read", "list", "delete"}) {
    served.emplace_back(op, Delta(std::string("io_server.requests.") + op));
  }
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());

  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3, 4, 5, 6, 7, 8};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  EXPECT_EQ(ReadBack(conn, "/data", {{2, 4}}).value(), (Bytes{3, 4, 5, 6}));

  const std::vector<net::SubfileInfo> listing = conn.List().value();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].name, "/data");
  EXPECT_EQ(listing[0].size, 8u);
  EXPECT_TRUE(conn.Delete("/data").ok());

  // Each of the five opcodes above was served once, on one session.
  for (const auto& [op, delta] : served) EXPECT_EQ(delta(), 1u) << op;
  EXPECT_EQ(accepted(), 1u);
  const std::string metrics_text = conn.Metrics().value();
  EXPECT_NE(metrics_text.find("io_server.requests.delete"), std::string::npos);
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
  const Bytes bytes{1};
  writes.emplace_back(0, bytes);
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

}  // namespace
}  // namespace dpfs::server
