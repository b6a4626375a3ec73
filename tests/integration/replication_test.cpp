// End-to-end coverage of the replication extension (docs/REPLICATION.md)
// against a live cluster: replicated creates fan writes to every rank,
// reads fail over when a server dies, partial write failures are surfaced
// but tolerated while any copy of each brick survives, and a server killed
// mid-collective-write loses no data.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "client/collective.h"
#include "client/datatype.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CollectiveFile;
using client::CreateOptions;
using client::Datatype;
using client::FileHandle;
using client::IoOptions;
using client::IoReport;

Bytes SeededBytes(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(size);
  for (std::uint8_t& b : data) {
    b = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void StartCluster(std::uint32_t num_servers) {
    core::ClusterOptions options;
    options.num_servers = num_servers;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  FileHandle CreateReplicated(const std::string& path, std::uint32_t factor,
                              std::uint64_t total_bytes = 64 * 1024,
                              std::uint64_t brick_bytes = 4 * 1024) {
    CreateOptions create;
    create.total_bytes = total_bytes;
    create.brick_bytes = brick_bytes;
    create.replication = factor;
    return fs_->Create(path, create).value();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<client::FileSystem> fs_;
};

TEST_F(ReplicationTest, ReplicatedWriteReadRoundTrip) {
  StartCluster(3);
  FileHandle handle = CreateReplicated("/r2.bin", 2);
  EXPECT_EQ(handle.record.replication(), 2u);

  const Bytes data = SeededBytes(64 * 1024, 1);
  IoReport write_report;
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data, {}, &write_report).ok());
  EXPECT_EQ(write_report.replica_write_failures, 0u);
  // Every byte crossed the wire twice — once per rank.
  EXPECT_EQ(write_report.transfer_bytes, 2u * 64 * 1024);

  Bytes read(64 * 1024);
  IoReport read_report;
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read, {}, &read_report).ok());
  EXPECT_EQ(read, data);
  EXPECT_EQ(read_report.failover_reads, 0u);  // healthy cluster: all primary
  EXPECT_TRUE(fs_->Fsck().value().clean());
}

TEST_F(ReplicationTest, DefaultCreateStaysUnreplicated) {
  // R = 1 is the paper's semantics and the default; no replica rows, no
  // replica traffic, nothing to fail over to.
  StartCluster(3);
  CreateOptions create;
  create.total_bytes = 16 * 1024;
  create.brick_bytes = 4 * 1024;
  FileHandle handle = fs_->Create("/plain.bin", create).value();
  EXPECT_EQ(handle.record.replication(), 1u);
  EXPECT_TRUE(handle.record.replicas.empty());

  const Bytes data = SeededBytes(16 * 1024, 2);
  IoReport report;
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data, {}, &report).ok());
  EXPECT_EQ(report.transfer_bytes, 16u * 1024);  // once, not R times
  EXPECT_EQ(report.replica_write_failures, 0u);
}

TEST_F(ReplicationTest, ReplicationNeedsEnoughServers) {
  StartCluster(2);
  CreateOptions create;
  create.total_bytes = 8 * 1024;
  create.brick_bytes = 4 * 1024;
  create.replication = 3;  // 3 copies over 2 servers cannot be disjoint
  EXPECT_EQ(fs_->Create("/toowide.bin", create).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ReplicationTest, ReadFailsOverWhenAServerDies) {
  StartCluster(3);
  FileHandle handle = CreateReplicated("/failover.bin", 2);
  const Bytes data = SeededBytes(64 * 1024, 3);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());

  metrics::Counter& failovers = metrics::GetCounter("client.failover_reads");
  const std::uint64_t failovers_before = failovers.value();

  cluster_->server(0).Stop();
  Bytes read(64 * 1024);
  IoOptions io;
  io.max_retries = 0;  // fail over immediately rather than waiting out 0
  IoReport report;
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read, io, &report).ok());
  EXPECT_EQ(read, data);
  EXPECT_GE(report.failover_reads, 1u);
  EXPECT_GE(failovers.value() - failovers_before, 1u);

  // The dead server is now suspect: a second read goes straight to the
  // surviving replicas without burning a dial on it.
  Bytes again(64 * 1024);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, again, io).ok());
  EXPECT_EQ(again, data);
}

TEST_F(ReplicationTest, DegradedWriteSurvivesAndSurfacesFailures) {
  // Two servers, R=2: every brick has one copy on each. With server 1 down
  // a write keeps exactly one live copy per brick — it must succeed, report
  // the failed replica requests, and reads (failing over) must see the new
  // bytes.
  StartCluster(2);
  FileHandle handle = CreateReplicated("/degraded.bin", 2, 32 * 1024);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, SeededBytes(32 * 1024, 4)).ok());

  metrics::Counter& failures =
      metrics::GetCounter("client.replica_write_failures");
  const std::uint64_t failures_before = failures.value();

  cluster_->server(1).Stop();
  const Bytes fresh = SeededBytes(32 * 1024, 5);
  IoOptions io;
  io.max_retries = 0;
  IoReport report;
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, fresh, io, &report).ok());
  EXPECT_GE(report.replica_write_failures, 1u);
  EXPECT_GE(failures.value() - failures_before, 1u);

  Bytes read(32 * 1024);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read, io).ok());
  EXPECT_EQ(read, fresh);

  // Losing the last copy is a hard failure: with both servers down no
  // brick survives, and the write must report it.
  cluster_->server(0).Stop();
  EXPECT_FALSE(fs_->WriteBytes(handle, 0, fresh, io).ok());
}

TEST_F(ReplicationTest, InjectedReplicaFailuresAreTolerated) {
  // Same semantics driven by failpoints: a single-brick R=2 file issues
  // exactly two write requests (primary, then replica). Failing the first
  // must not fail the write — the brick's other copy survives and the
  // report says one copy was dropped. Failing both is data loss and must
  // surface as the write's error.
  StartCluster(3);
  FileHandle handle = CreateReplicated("/inject.bin", 2, 16 * 1024, 16 * 1024);

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  spec.count = 1;
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 0;  // no retry: the injected failure sticks
  IoReport report;
  ASSERT_TRUE(
      fs_->WriteBytes(handle, 0, SeededBytes(16 * 1024, 6), io, &report).ok());
  EXPECT_EQ(report.replica_write_failures, 1u);

  failpoint::DisarmAll();
  spec.count = 2;  // both copies of the one brick fail
  failpoint::Arm("client.call", spec);
  EXPECT_EQ(fs_->WriteBytes(handle, 0, SeededBytes(16 * 1024, 6), io)
                .code(),
            StatusCode::kUnavailable);
}

TEST_F(ReplicationTest, ListIoFallsBackForReplicatedFiles) {
  // List I/O does not compose with replication; IoOptions::list_io on a
  // replicated file takes the per-extent path, counts one
  // client.list_io_fallbacks per access, and must still round-trip bytes
  // through both ranks.
  StartCluster(3);
  FileHandle handle = CreateReplicated("/list.bin", 2, 4096, 64);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, SeededBytes(4096, 7)).ok());

  metrics::Counter& fallbacks =
      metrics::GetCounter("client.list_io_fallbacks");
  metrics::Counter& list_requests =
      metrics::GetCounter("client.list_requests");
  const std::uint64_t fallbacks_before = fallbacks.value();
  const std::uint64_t list_requests_before = list_requests.value();

  const Datatype pattern =
      Datatype::Vector(32, 10, 24, Datatype::Bytes(1)).value();
  IoOptions list;
  list.list_io = true;
  const Bytes payload = SeededBytes(pattern.size(), 8);
  ASSERT_TRUE(fs_->WriteType(handle, 5, pattern, payload, list).ok());
  Bytes back(pattern.size());
  ASSERT_TRUE(fs_->ReadType(handle, 5, pattern, back, list).ok());
  EXPECT_EQ(back, payload);

  // And the degraded read still works for the fallback path.
  cluster_->server(0).Stop();
  IoOptions degraded = list;
  degraded.max_retries = 0;
  Bytes survived(pattern.size());
  ASSERT_TRUE(fs_->ReadType(handle, 5, pattern, survived, degraded).ok());
  EXPECT_EQ(survived, payload);

  // Write, read and degraded read: one fallback each, no list request.
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 3u);
  EXPECT_EQ(list_requests.value(), list_requests_before);
}

TEST_F(ReplicationTest, RemoveAndRenameCoverReplicaSubfiles) {
  StartCluster(3);
  FileHandle handle = CreateReplicated("/old.bin", 2, 16 * 1024);
  const Bytes data = SeededBytes(16 * 1024, 9);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());

  ASSERT_TRUE(fs_->Rename("/old.bin", "/new.bin").ok());
  FileHandle renamed = fs_->Open("/new.bin").value();
  EXPECT_EQ(renamed.record.replication(), 2u);
  Bytes read(16 * 1024);
  ASSERT_TRUE(fs_->ReadBytes(renamed, 0, read).ok());
  EXPECT_EQ(read, data);
  EXPECT_TRUE(fs_->Fsck().value().clean());

  // Remove must delete the replica subfiles too, or fsck would flag
  // orphans.
  ASSERT_TRUE(fs_->Remove("/new.bin").ok());
  EXPECT_TRUE(fs_->Fsck().value().clean());
}

TEST_F(ReplicationTest, CollectiveReportCarriesReplicaCounters) {
  // CollectiveFile::report() sums every field of each rank's IoReport: with
  // server 0's copies gone, its replication counters agree with the
  // registry's over the same window.
  StartCluster(4);
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {64, 64};
  create.brick_shape = {16, 16};
  create.replication = 2;
  std::unique_ptr<CollectiveFile> collective =
      CollectiveFile::Create(fs_, "/report-r2.dpfs", create, 1).value();
  ASSERT_TRUE(collective->SetView(0, {{0, 0}, {64, 64}}).ok());

  const metrics::Counter& write_failures =
      metrics::GetCounter("client.replica_write_failures");
  const metrics::Counter& failovers =
      metrics::GetCounter("client.failover_reads");
  const std::uint64_t write_failures_before = write_failures.value();
  const std::uint64_t failovers_before = failovers.value();

  cluster_->server(0).Stop();
  IoOptions io;
  io.max_retries = 0;
  const Bytes data = SeededBytes(64 * 64, 9);
  ASSERT_TRUE(collective->WriteAll(0, data, io).ok());
  Bytes read(64 * 64);
  ASSERT_TRUE(collective->ReadAll(0, read, io).ok());
  EXPECT_EQ(read, data);

  const IoReport report = collective->report();
  EXPECT_GE(report.replica_write_failures, 1u);
  EXPECT_GE(report.failover_reads, 1u);
  EXPECT_EQ(report.replica_write_failures,
            write_failures.value() - write_failures_before);
  EXPECT_EQ(report.failover_reads, failovers.value() - failovers_before);
}

TEST_F(ReplicationTest, ChaosServerKilledMidCollectiveWriteLosesNoData) {
  // The acceptance scenario: an R=2 collective file, one server killed and
  // restarted mid-write. Retry + backoff spans the gap (writes only report
  // success once every rank's copy landed), so every phase's bytes must
  // read back intact afterwards — no data loss.
  StartCluster(3);
  constexpr std::uint32_t kRanks = 4;
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {64, 64};
  create.brick_shape = {16, 16};
  create.replication = 2;
  auto collective =
      CollectiveFile::Create(fs_, "/chaos-r2.dpfs", create, kRanks);
  ASSERT_TRUE(collective.ok()) << collective.status().ToString();
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  layout::ProcessGrid grid;
  grid.grid = {2, 2};
  ASSERT_TRUE(collective.value()->SetHpfViews(pattern, grid).ok());

  // Every rank keeps making the same sequence of collective calls even
  // after a failure — bailing out would strand the peers at the next
  // phase's barrier. Failures are tallied and asserted after the joins.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const layout::Region view = collective.value()->view(rank).value();
      IoOptions io;
      io.max_retries = 25;  // backoff spans the in-process restart gap
      for (int phase = 0; phase < 4; ++phase) {
        const Bytes data =
            SeededBytes(view.num_elements(),
                        static_cast<std::uint64_t>(phase) * 10 + rank);
        if (!collective.value()->WriteAll(rank, data, io).ok()) {
          failures.fetch_add(1);
        }
        Bytes check(data.size());
        if (!collective.value()->ReadAll(rank, check, io).ok() ||
            check != data) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread restarter([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(cluster_->RestartServer(1).ok());
  });
  for (std::thread& t : threads) t.join();
  restarter.join();
  ASSERT_EQ(failures.load(), 0);

  // Final state: every rank's last phase reads back with a matching CRC.
  // ReadAll is collective, so the verification pass is one more 4-rank
  // phase; the CRCs are compared on this thread after the join.
  std::vector<Bytes> final_reads(kRanks);
  std::vector<std::thread> readers;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    readers.emplace_back([&, rank] {
      const layout::Region view = collective.value()->view(rank).value();
      final_reads[rank].resize(view.num_elements());
      IoOptions io;
      io.max_retries = 10;
      if (!collective.value()->ReadAll(rank, final_reads[rank], io).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    const Bytes expect = SeededBytes(final_reads[rank].size(), 30 + rank);
    EXPECT_EQ(Crc32c(final_reads[rank]), Crc32c(expect)) << "rank " << rank;
  }
  EXPECT_TRUE(fs_->Fsck().value().clean());
}

}  // namespace
}  // namespace dpfs
