// Chaos: every feature at once, and fault-schedule scenarios. Collective
// phases, independent whole-brick and sieve readers, parallel-dispatch
// writers, renames, fsck, and metadata traffic all share one FileSystem
// against one live cluster; then failpoint-driven schedules (busy storms,
// dropped connections, a server restarted mid-access) hit a mixed
// read/write workload. Nothing may deadlock, crash, or corrupt data.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "client/collective.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CollectiveFile;
using client::CreateOptions;
using client::FileHandle;
using client::IoOptions;
using client::IoReport;

TEST(ChaosTest, AllFeaturesConcurrently) {
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  ASSERT_TRUE(fs->metadata().MakeDirectory("/chaos").ok());

  // Shared collective file.
  constexpr std::uint32_t kRanks = 4;
  CreateOptions coll_create;
  coll_create.level = layout::FileLevel::kMultidim;
  coll_create.array_shape = {64, 64};
  coll_create.brick_shape = {16, 16};
  auto collective =
      CollectiveFile::Create(fs, "/chaos/coll.dpfs", coll_create, kRanks);
  ASSERT_TRUE(collective.ok()) << collective.status().ToString();
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  layout::ProcessGrid grid;
  grid.grid = {2, 2};
  ASSERT_TRUE(collective.value()->SetHpfViews(pattern, grid).ok());

  // A hot shared read-only file for the independent readers.
  CreateOptions hot_create;
  hot_create.total_bytes = 64 * 1024;
  hot_create.brick_bytes = 4 * 1024;
  FileHandle hot = fs->Create("/chaos/hot.bin", hot_create).value();
  SplitMix64 seed_rng(5);
  Bytes hot_data(64 * 1024);
  for (std::uint8_t& b : hot_data) {
    b = static_cast<std::uint8_t>(seed_rng.NextU64());
  }
  ASSERT_TRUE(fs->WriteBytes(hot, 0, hot_data).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  // 4 collective ranks doing write/read phases.
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const layout::Region view = collective.value()->view(rank).value();
      for (int phase = 0; phase < 4; ++phase) {
        SplitMix64 rng(phase * 10 + rank);
        Bytes data(view.num_elements());
        for (std::uint8_t& b : data) {
          b = static_cast<std::uint8_t>(rng.NextU64());
        }
        if (!collective.value()->WriteAll(rank, data).ok()) {
          failures.fetch_add(1);
          return;
        }
        Bytes check(data.size());
        if (!collective.value()->ReadAll(rank, check).ok() || check != data) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // 3 independent readers hammering the hot file with mixed options.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(100 + t);
      FileHandle handle = fs->Open("/chaos/hot.bin").value();
      handle.client_id = 10 + t;
      Bytes buffer;
      for (int op = 0; op < 40; ++op) {
        const std::uint64_t offset = rng.NextBelow(60 * 1024);
        const std::uint64_t length = 1 + rng.NextBelow(4 * 1024);
        buffer.resize(length);
        IoOptions io;
        io.whole_brick_reads = rng.NextBelow(2) == 0;
        io.parallel_dispatch = rng.NextBelow(2) == 0;
        if (!fs->ReadBytes(handle, offset, buffer, io).ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!std::equal(buffer.begin(), buffer.end(),
                        hot_data.begin() + static_cast<std::ptrdiff_t>(offset))) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // One metadata churner: create/rename/delete private files + fsck.
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      CreateOptions create;
      create.total_bytes = 2048;
      create.brick_bytes = 512;
      const std::string path = "/chaos/tmp" + std::to_string(i);
      Result<FileHandle> handle = fs->Create(path, create);
      if (!handle.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!fs->WriteBytes(*handle, 0, Bytes(2048, static_cast<std::uint8_t>(i)))
               .ok() ||
          !fs->Rename(path, path + ".renamed").ok() ||
          !fs->Remove(path + ".renamed").ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!fs->Fsck().ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // End state: clean fsck, hot file intact, collective file readable.
  EXPECT_TRUE(fs->Fsck().value().clean());
  Bytes final_hot(64 * 1024);
  FileHandle hot2 = fs->Open("/chaos/hot.bin").value();
  ASSERT_TRUE(fs->ReadBytes(hot2, 0, final_hot).ok());
  EXPECT_EQ(final_hot, hot_data);
}

// ---------------------------------------------------------------------------
// Fault-schedule scenarios. Each worker owns a private file striped across
// every server, writes a seeded random block, reads it back, and verifies a
// CRC32C checksum — so any lost, duplicated, or torn bytes are caught, not
// just "the call returned ok".

class ChaosScheduleTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  struct WorkloadStats {
    std::atomic<int> failures{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> busy_retries{0};
  };

  /// `workers` threads × `rounds` write+read+CRC-verify rounds against
  /// private files under /storm. The fault schedule runs concurrently.
  static void RunWorkload(core::LocalCluster& cluster, int workers,
                          int rounds, int max_retries,
                          WorkloadStats& stats) {
    auto fs = cluster.fs();
    ASSERT_TRUE(fs->metadata().MakeDirectory("/storm").ok());
    // Creation is metadata-only and uses an explicit transaction; metadb is
    // single-writer for those, so create sequentially before the storm.
    std::vector<FileHandle> handles;
    for (int w = 0; w < workers; ++w) {
      CreateOptions create;
      create.total_bytes = 16 * 1024;
      create.brick_bytes = 2 * 1024;  // stripes across all servers
      Result<FileHandle> handle =
          fs->Create("/storm/w" + std::to_string(w), create);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handle->client_id = static_cast<std::uint32_t>(w);
      handles.push_back(std::move(handle).value());
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        FileHandle* handle = &handles[w];
        IoOptions io;
        io.max_retries = max_retries;
        for (int round = 0; round < rounds; ++round) {
          SplitMix64 rng(static_cast<std::uint64_t>(w * 1000 + round));
          Bytes data(16 * 1024);
          for (std::uint8_t& b : data) {
            b = static_cast<std::uint8_t>(rng.NextU64());
          }
          const std::uint32_t crc = Crc32c(data);
          IoReport report;
          if (!fs->WriteBytes(*handle, 0, data, io, &report).ok()) {
            stats.failures.fetch_add(1);
            return;
          }
          Bytes read(data.size());
          if (!fs->ReadBytes(*handle, 0, read, io, &report).ok()) {
            stats.failures.fetch_add(1);
            return;
          }
          if (Crc32c(read) != crc) {
            stats.failures.fetch_add(1);
            return;
          }
          stats.retries.fetch_add(report.retries);
          stats.busy_retries.fetch_add(report.busy_retries);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
};

TEST_F(ChaosScheduleTest, BusyStormRecovers) {
  // A window of "server busy" rejections (§4.2): the first few session
  // dials pass, then 6 in a row are rejected, then the storm ends. Clients
  // must absorb it entirely through retry + backoff.
  core::ClusterOptions options;
  options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  // The cluster's servers share one registry: this is their sum.
  const metrics::Counter& busy_rejects =
      metrics::GetCounter("io_server.busy_rejects");
  const std::uint64_t busy_before = busy_rejects.value();

  failpoint::Spec busy;
  busy.action = failpoint::Action::kBusy;
  busy.skip = 4;
  busy.count = 6;
  failpoint::Arm("server.session", busy);

  WorkloadStats stats;
  RunWorkload(*cluster, 4, 3, /*max_retries=*/10, stats);
  EXPECT_EQ(stats.failures.load(), 0);
  // Connection reuse means not all 6 counts necessarily fire, but every
  // fire must be visible as a busy rejection in the servers' counters.
  const std::uint64_t rejected = busy_rejects.value() - busy_before;
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(rejected, failpoint::HitCount("server.session"));
  EXPECT_GE(stats.retries.load(), 1u);
  EXPECT_GE(stats.busy_retries.load(), 1u);
  EXPECT_TRUE(cluster->fs()->Fsck().value().clean());
}

TEST_F(ChaosScheduleTest, DroppedRepliesMidSessionRecover) {
  // Servers drop sessions with replies unsent: the client cannot know the
  // request's fate and must retry (writes are idempotent fragment puts).
  core::ClusterOptions options;
  options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const metrics::Counter& server_errors =
      metrics::GetCounter("io_server.errors");
  const std::uint64_t errors_before = server_errors.value();

  failpoint::Spec drop;
  drop.action = failpoint::Action::kDisconnect;
  drop.skip = 6;
  drop.count = 8;
  failpoint::Arm("server.before_reply", drop);

  WorkloadStats stats;
  RunWorkload(*cluster, 4, 3, /*max_retries=*/10, stats);
  EXPECT_EQ(stats.failures.load(), 0);
  EXPECT_EQ(failpoint::HitCount("server.before_reply"), 8u);
  EXPECT_GE(stats.retries.load(), 1u);
  EXPECT_GE(server_errors.value() - errors_before, 8u);
  EXPECT_TRUE(cluster->fs()->Fsck().value().clean());
}

TEST_F(ChaosScheduleTest, TornReplyFramesRecover) {
  // The reply is cut mid-frame on the wire (net.send_all fires inside the
  // in-process server too): the client sees a torn frame, maps it to
  // kUnavailable, and retries on a fresh connection.
  core::ClusterOptions options;
  options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();

  failpoint::Spec torn;
  torn.action = failpoint::Action::kDisconnect;
  torn.arg = 5;  // a few header bytes escape, then the stream dies
  torn.skip = 8;
  torn.count = 4;
  failpoint::Arm("net.send_all", torn);

  WorkloadStats stats;
  RunWorkload(*cluster, 3, 3, /*max_retries=*/10, stats);
  EXPECT_EQ(stats.failures.load(), 0);
  EXPECT_EQ(failpoint::HitCount("net.send_all"), 4u);
  EXPECT_TRUE(cluster->fs()->Fsck().value().clean());
}

TEST_F(ChaosScheduleTest, ServerRestartMidAccessRecovers) {
  // One server is stopped and restarted (same port, same subfile root)
  // while the workload runs. In the gap, clients see refused connections
  // and frame-boundary closes — all retryable; linear backoff spans the
  // restart window. Earlier-written data must survive the restart.
  core::ClusterOptions options;
  options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();

  WorkloadStats stats;
  std::thread restarter([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(cluster->RestartServer(1).ok());
  });
  // max_retries=25 → worst-case 650 ms of backoff per request, far wider
  // than the in-process restart gap.
  RunWorkload(*cluster, 4, 10, /*max_retries=*/25, stats);
  restarter.join();
  EXPECT_EQ(stats.failures.load(), 0);
  EXPECT_TRUE(cluster->fs()->Fsck().value().clean());

  // And the restarted server still serves bytes written before it died.
  auto fs = cluster->fs();
  FileHandle handle = fs->Open("/storm/w0").value();
  SplitMix64 rng(9);  // w=0, round=9: the last pattern worker 0 wrote
  Bytes expect(16 * 1024);
  for (std::uint8_t& b : expect) {
    b = static_cast<std::uint8_t>(rng.NextU64());
  }
  Bytes read(16 * 1024);
  IoOptions io;
  io.max_retries = 10;
  ASSERT_TRUE(fs->ReadBytes(handle, 0, read, io).ok());
  EXPECT_EQ(Crc32c(read), Crc32c(expect));
}

TEST_F(ChaosScheduleTest, MixedScheduleEverythingAtOnce) {
  // The full storm: busy rejections, dropped replies, and injected client
  // call failures overlapping on one cluster. The counters are not pinned
  // (schedules interleave nondeterministically); recovery and integrity
  // are.
  core::ClusterOptions options;
  options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();

  ASSERT_TRUE(failpoint::ArmFromString("server.session=busy,skip=3,count=4;"
                                       "server.before_reply=disconnect,"
                                       "skip=10,count=4;"
                                       "client.call=error:unavailable,"
                                       "skip=6,count=3")
                  .ok());

  WorkloadStats stats;
  RunWorkload(*cluster, 4, 4, /*max_retries=*/12, stats);
  EXPECT_EQ(stats.failures.load(), 0);
  EXPECT_GE(stats.retries.load(), 1u);
  EXPECT_TRUE(cluster->fs()->Fsck().value().clean());
}

}  // namespace
}  // namespace dpfs
