// Chaos coverage for the standalone metadata service: dropped and faulted
// replies (`metad.reply`), a deterministic mid-request crash
// (`metad.crash`), a restart under an idle client connection, and a
// namespace transaction that fails at its commit (`metadb.commit`) inside
// the metad: clients that only ever saw the wire must find the namespace
// as it was before the failed mutation, with no restart needed to get
// there, and a restarted metad must agree.
//
// The suite name contains both "Metad" and "Chaos" so the asan-faults /
// tsan-faults ctest presets pick it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/cluster.h"
#include "net/connection.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::MetadataService;

class MetadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 2;
    options.start_metadata_service = true;
    // metadb.commit fires only on a database with a WAL.
    options.durable_metadata = true;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  static CreateOptions LinearFile() {
    CreateOptions create;
    create.total_bytes = 128;
    create.brick_bytes = 64;
    return create;
  }

  /// The next metadata commit fails before its WAL append.
  static void ArmCommitFailure() {
    failpoint::Spec commit_fault;
    commit_fault.action = failpoint::Action::kReturnError;
    commit_fault.code = StatusCode::kUnavailable;
    commit_fault.message = "injected commit failure";
    commit_fault.count = 1;
    failpoint::Arm("metadb.commit", commit_fault);
  }

  bool Listed(const std::string& name) {
    const MetadataService::Listing listing =
        fs_->metadata().ListDirectory("/").value();
    return std::find(listing.files.begin(), listing.files.end(), name) !=
           listing.files.end();
  }

  /// "File listed iff rows exist", checked entirely over the wire: every
  /// listed file resolves, and every probed path agrees between FileExists,
  /// the directory listing and LookupFile.
  void ExpectConsistentOverTheWire(const std::vector<std::string>& probes) {
    const MetadataService::Listing root =
        fs_->metadata().ListDirectory("/").value();
    for (const std::string& name : root.files) {
      EXPECT_TRUE(fs_->metadata().LookupFile("/" + name).ok())
          << "/" << name << " is listed but has no metadata rows";
    }
    for (const std::string& path : probes) {
      const bool exists = fs_->metadata().FileExists(path).value();
      EXPECT_EQ(exists, Listed(path.substr(1))) << path;
      EXPECT_EQ(exists, fs_->metadata().LookupFile(path).ok()) << path;
    }
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<client::FileSystem> fs_;
};

TEST_F(MetadChaosTest, DroppedReplySurfacesUnavailableThenRecovers) {
  // metad.reply kDisconnect: the request is handled but the reply never
  // leaves. The client sees the retryable "fate unknown" outcome and its
  // next operation transparently redials.
  (void)fs_->Create("/drop.bin", LinearFile()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kDisconnect;
  spec.count = 1;
  failpoint::Arm("metad.reply", spec);

  const Result<bool> dropped = fs_->metadata().FileExists("/drop.bin");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::HitCount("metad.reply"), 1u);

  EXPECT_TRUE(fs_->metadata().FileExists("/drop.bin").value());
}

TEST_F(MetadChaosTest, FaultedReplyKeepsSessionUsable) {
  // metad.reply kReturnError swaps the real reply for an error envelope;
  // unlike the disconnect, the connection survives and the next request on
  // it succeeds.
  (void)fs_->Create("/fault.bin", LinearFile()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kIoError;
  spec.message = "injected metad fault";
  spec.count = 1;
  failpoint::Arm("metad.reply", spec);

  const Result<bool> faulted = fs_->metadata().FileExists("/fault.bin");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
  EXPECT_EQ(faulted.status().message(), "injected metad fault");

  EXPECT_TRUE(fs_->metadata().FileExists("/fault.bin").value());
}

TEST_F(MetadChaosTest, CrashFailpointStopsServiceAndRestartRevives) {
  (void)fs_->Create("/crash.bin", LinearFile()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;  // action is ignored: any
  spec.count = 1;                                 // hit crashes the service
  failpoint::Arm("metad.crash", spec);

  const Result<bool> during = fs_->metadata().FileExists("/crash.bin");
  ASSERT_FALSE(during.ok());
  EXPECT_EQ(during.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::HitCount("metad.crash"), 1u);

  // The service is down: operations fail until somebody restarts it.
  EXPECT_FALSE(fs_->metadata().FileExists("/crash.bin").ok());

  ASSERT_TRUE(cluster_->RestartMetad().ok());
  EXPECT_TRUE(fs_->metadata().FileExists("/crash.bin").value());
}

TEST_F(MetadChaosTest, CrashServesNoEarlierSession) {
  // Two sessions opened before the crash: the one whose request hits the
  // failpoint gets the crash reply, and the other one's next request goes
  // unanswered, as it would from a dead process.
  const net::Endpoint endpoint = cluster_->metad()->endpoint();
  net::ServerConnection a = net::ServerConnection::Connect(endpoint).value();
  net::ServerConnection b = net::ServerConnection::Connect(endpoint).value();
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;  // action is ignored
  spec.count = 1;
  failpoint::Arm("metad.crash", spec);
  const Result<net::ReplyFrame> crashed =
      a.Call(net::MessageType::kMetaListServers, {});
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::HitCount("metad.crash"), 1u);

  const Result<net::ReplyFrame> after =
      b.Call(net::MessageType::kMetaListServers, {});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
      << after.status().ToString();
  EXPECT_FALSE(net::ServerConnection::Connect(endpoint).ok());
}

TEST_F(MetadChaosTest, RestartedMetadIsRedialedOnTheNextCall) {
  // The metadata client's pooled connection goes stale when the metad
  // restarts; the next call's acquire probes it, redials once, and the
  // call succeeds without surfacing an error.
  ASSERT_TRUE(fs_->metadata().MakeDirectory("/kept").ok());
  const metrics::Counter& redials = metrics::GetCounter("conn_pool.redials");
  const std::uint64_t redials_before = redials.value();
  ASSERT_TRUE(cluster_->RestartMetad().ok());
  // Give the stopped metad's FIN time to reach the pooled socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  EXPECT_TRUE(fs_->metadata().DirectoryExists("/kept").value());
  EXPECT_EQ(redials.value() - redials_before, 1u);
}

TEST_F(MetadChaosTest, CreateFailingAtCommitLeavesNoFile) {
  // The create's one transaction fails at its commit inside the metad and
  // rolls back whole: the file is neither listed nor existing, and its name
  // is free for a retry.
  ArmCommitFailure();
  EXPECT_FALSE(fs_->Create("/half", LinearFile()).ok());
  EXPECT_EQ(failpoint::HitCount("metadb.commit"), 1u);
  failpoint::DisarmAll();

  for (const bool restarted : {false, true}) {
    if (restarted) {
      ASSERT_TRUE(cluster_->RestartMetad().ok());
    }
    EXPECT_FALSE(fs_->metadata().FileExists("/half").value()) << restarted;
    EXPECT_FALSE(Listed("half")) << restarted;
    EXPECT_EQ(fs_->Open("/half").status().code(), StatusCode::kNotFound)
        << restarted;
    ExpectConsistentOverTheWire({"/half"});
  }
  EXPECT_TRUE(fs_->Create("/half", LinearFile()).ok());
}

TEST_F(MetadChaosTest, DeleteFailingAtCommitKeepsTheFile) {
  // The delete's one transaction fails at its commit and rolls back whole:
  // the file stays listed, existing and openable.
  (void)fs_->Create("/kept", LinearFile()).value();

  ArmCommitFailure();
  EXPECT_FALSE(fs_->metadata().DeleteFile("/kept").ok());
  EXPECT_EQ(failpoint::HitCount("metadb.commit"), 1u);
  failpoint::DisarmAll();

  for (const bool restarted : {false, true}) {
    if (restarted) {
      ASSERT_TRUE(cluster_->RestartMetad().ok());
    }
    EXPECT_TRUE(fs_->metadata().FileExists("/kept").value()) << restarted;
    EXPECT_TRUE(Listed("kept")) << restarted;
    EXPECT_TRUE(fs_->Open("/kept").ok()) << restarted;
    ExpectConsistentOverTheWire({"/kept"});
  }
}

}  // namespace
}  // namespace dpfs
