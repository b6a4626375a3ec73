// Pins the §4.2 "try again later" client semantics: which errors are
// retried, how many attempts max_retries buys, what the IoReport counters
// record, and that failed connections are never returned to the pool.
#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::IoOptions;
using client::IoReport;

class RetryBackoffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 1;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();

    CreateOptions create;
    create.total_bytes = 256;
    create.brick_bytes = 256;  // one brick, one server: one wire request/op
    handle_ = fs_->Create("/retry.bin", create).value();
    data_ = Bytes(256, 0x5A);
    ASSERT_TRUE(fs_->WriteBytes(handle_, 0, data_).ok());
  }

  void TearDown() override { failpoint::DisarmAll(); }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<client::FileSystem> fs_;
  FileHandle handle_;
  Bytes data_;
};

TEST_F(RetryBackoffTest, TransientUnavailableIsRetriedAndRecovers) {
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  spec.count = 2;  // first two attempts fail, third goes through
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 3;
  IoReport report;
  Bytes read(256);
  ASSERT_TRUE(fs_->ReadBytes(handle_, 0, read, io, &report).ok());
  EXPECT_EQ(read, data_);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.busy_retries, 0u);  // unavailable, not busy
  EXPECT_EQ(report.backoff_ms, 2u + 4u);  // linear: 2*1 + 2*2
  EXPECT_EQ(failpoint::HitCount("client.call"), 2u);
}

TEST_F(RetryBackoffTest, BusyRetriesAreCountedSeparately) {
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kResourceExhausted;
  spec.count = 1;
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 2;
  IoReport report;
  Bytes read(256);
  ASSERT_TRUE(fs_->ReadBytes(handle_, 0, read, io, &report).ok());
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.busy_retries, 1u);
}

TEST_F(RetryBackoffTest, NonRetryableErrorFailsOnFirstAttempt) {
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kIoError;
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 5;
  IoReport report;
  Bytes read(256);
  const Status status = fs_->ReadBytes(handle_, 0, read, io, &report);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(report.retries, 0u);  // kIoError is not transient
  EXPECT_EQ(failpoint::HitCount("client.call"), 1u);
}

TEST_F(RetryBackoffTest, RetryExhaustionIsVisibleInTheReport) {
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;  // unlimited count: never recovers
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 2;
  IoReport report;
  Bytes read(256);
  const Status status = fs_->ReadBytes(handle_, 0, read, io, &report);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // All attempts failed, and the counters still made it into the report.
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.backoff_ms, 2u + 4u);
  EXPECT_EQ(failpoint::HitCount("client.call"), 3u);  // 1 + max_retries
}

TEST_F(RetryBackoffTest, MaxRetriesZeroMeansSingleAttempt) {
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 0;
  IoReport report;
  Bytes read(256);
  EXPECT_EQ(fs_->ReadBytes(handle_, 0, read, io, &report).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(failpoint::HitCount("client.call"), 1u);
}

TEST_F(RetryBackoffTest, BusyServerWithOneSessionSlotExhaustsThenRecovers) {
  // A real busy server, not a failpoint: max_sessions=1 and the one slot
  // held by a hog connection, so every client attempt is rejected busy
  // (§4.2) until the hog lets go.
  core::ClusterOptions options;
  options.num_servers = 1;
  options.max_sessions = 1;
  auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const auto fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 128;
  create.brick_bytes = 128;
  FileHandle handle = fs->Create("/busy.bin", create).value();

  const net::Endpoint endpoint = cluster->server(0).endpoint();
  const metrics::Counter& busy_rejects =
      metrics::GetCounter("io_server.busy_rejects");
  const std::uint64_t busy_before = busy_rejects.value();
  {
    client::PooledConnection hog =
        fs->connections().Acquire(endpoint).value();
    // Ping so the hog's session thread is provably up before the writer's
    // session is counted against max_sessions.
    ASSERT_TRUE(hog->Ping().ok());

    IoOptions io;
    io.max_retries = 2;
    IoReport report;
    const Status status = fs->WriteBytes(handle, 0, Bytes(128, 3), io,
                                         &report);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(report.retries, 2u);
    EXPECT_EQ(report.busy_retries, 2u);
    // Busy-dropped connections were poisoned, never pooled.
    EXPECT_EQ(fs->connections().idle_count(), 0u);
    EXPECT_GE(busy_rejects.value() - busy_before, 3u);
  }
  // Drop the hog's pooled connection so its server session (the slot) ends.
  fs->connections().Clear();

  // Slot free again: the same write now succeeds and reads back intact.
  IoOptions io;
  io.max_retries = 4;
  IoReport report;
  ASSERT_TRUE(fs->WriteBytes(handle, 0, Bytes(128, 3), io, &report).ok());
  Bytes read(128);
  ASSERT_TRUE(fs->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, Bytes(128, 3));
}

TEST_F(RetryBackoffTest, FailedAttemptConnectionsAreNeverPooled) {
  // Each failed attempt poisons its connection; after exhaustion the pool
  // must hold nothing reusable.
  ASSERT_GE(fs_->connections().idle_count(), 1u);

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  failpoint::Arm("client.call", spec);

  IoOptions io;
  io.max_retries = 3;
  Bytes read(256);
  ASSERT_FALSE(fs_->ReadBytes(handle_, 0, read, io).ok());
  EXPECT_EQ(fs_->connections().idle_count(), 0u);

  // And once the fault clears, the pool repopulates through normal use.
  failpoint::DisarmAll();
  ASSERT_TRUE(fs_->ReadBytes(handle_, 0, read).ok());
  EXPECT_EQ(read, data_);
  EXPECT_GE(fs_->connections().idle_count(), 1u);
}

TEST_F(RetryBackoffTest, RefusedConnectionIsRetriedAsUnavailable) {
  // "client.connect" simulates a connection refused at dial time — the
  // paper's dead-or-restarting workstation. Transient: retried.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  spec.count = 1;
  failpoint::Arm("client.connect", spec);

  IoOptions io;
  io.max_retries = 2;
  IoReport report;
  Bytes read(256);
  ASSERT_TRUE(fs_->ReadBytes(handle_, 0, read, io, &report).ok());
  EXPECT_EQ(read, data_);
  EXPECT_EQ(report.retries, 1u);
}

}  // namespace
}  // namespace dpfs
