// Chaos coverage for the standalone metadata service: dropped and faulted
// replies (`metad.reply`), a deterministic mid-request crash
// (`metad.crash`), and — the critical sequence — killing the metad between
// the shard commits of a cross-shard mutation, restarting it on the same
// database, and verifying the intent-record repair holds the "file listed
// iff its rows exist" invariant for clients that only ever saw the wire.
//
// The suite name contains both "Metad" and "Chaos" so the asan-faults /
// tsan-faults ctest presets pick it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::MetadataService;

constexpr std::size_t kShards = 4;

class MetadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 2;
    options.start_metadata_service = true;
    options.metadb_shards = kShards;  // cross-shard mutations exist
    // Cache off: every lookup goes to the wire, so each assertion below
    // observes the service, not this client's cache.
    options.metadata_cache_ttl = std::chrono::milliseconds(0);
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

  /// First "/<stem><i>" whose home shard differs from "/"'s shard, forcing
  /// its creation through the cross-shard intent protocol.
  std::string CrossShardChild(const std::string& stem) {
    const std::size_t root_shard =
        cluster_->sharded_db()->ShardForPath("/");
    for (int i = 0;; ++i) {
      const std::string path = "/" + stem + std::to_string(i);
      if (cluster_->sharded_db()->ShardForPath(path) != root_shard) {
        return path;
      }
    }
  }

  bool Listed(const std::string& name) {
    const MetadataService::Listing listing =
        fs_->metadata().ListDirectory("/").value();
    return std::find(listing.files.begin(), listing.files.end(), name) !=
           listing.files.end();
  }

  /// "File listed iff rows exist", checked entirely over the wire: every
  /// listed file resolves, every probed path agrees between FileExists and
  /// the directory listing, and no shard still holds an intent record.
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
    for (std::size_t i = 0; i < cluster_->sharded_db()->num_shards(); ++i) {
      const metadb::ResultSet intents =
          cluster_->sharded_db()
              ->shard(i)
              .Execute("SELECT src FROM DPFS_INTENT")
              .value();
      EXPECT_TRUE(intents.empty())
          << "shard " << i << " still holds " << intents.size() << " intents";
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

TEST_F(MetadChaosTest, CrashBetweenShardCommitsRepairsOnRestart) {
  // The tentpole sequence: a cross-shard create half-commits inside the
  // metad (home shard has rows + intent, the directory's shard does not),
  // the metad is killed, a successor attaches to the same database and
  // rolls the intent forward. Clients that only ever saw the wire must
  // then see a coherent namespace — the file fully exists.
  const std::string victim = CrossShardChild("half");

  failpoint::Spec commit_fault;
  commit_fault.action = failpoint::Action::kReturnError;
  commit_fault.code = StatusCode::kUnavailable;
  commit_fault.message = "injected crash between shard commits";
  commit_fault.count = 1;
  failpoint::Arm("metadb.shard_commit", commit_fault);

  const Result<client::FileHandle> torn = fs_->Create(victim, LinearFile());
  EXPECT_FALSE(torn.ok());
  EXPECT_GE(failpoint::HitCount("metadb.shard_commit"), 1u);
  failpoint::DisarmAll();

  // The tear, observed over the wire: the attribute rows committed on the
  // home shard, the directory link did not — a file that "exists" but is
  // invisible in its directory. This is exactly the state repair removes.
  EXPECT_TRUE(fs_->metadata().FileExists(victim).value());
  EXPECT_FALSE(Listed(victim.substr(1)));

  // Kill the metad mid-protocol and bring up a successor on the same
  // database and port; Start's Attach runs the repair pass.
  ASSERT_TRUE(cluster_->RestartMetad().ok());

  // Repair rolled the intent forward: rows committed on the home shard win,
  // so the file exists everywhere — listed, resolvable, openable.
  EXPECT_TRUE(fs_->metadata().FileExists(victim).value());
  EXPECT_TRUE(Listed(victim.substr(1)));
  EXPECT_TRUE(fs_->metadata().LookupFile(victim).ok());
  EXPECT_TRUE(fs_->Open(victim).ok());
  ExpectConsistentOverTheWire({victim});
}

TEST_F(MetadChaosTest, DeleteTornByCrashRepairsOnRestart) {
  const std::string victim = CrossShardChild("gone");
  (void)fs_->Create(victim, LinearFile()).value();

  failpoint::Spec commit_fault;
  commit_fault.action = failpoint::Action::kReturnError;
  commit_fault.code = StatusCode::kUnavailable;
  commit_fault.message = "injected crash between shard commits";
  commit_fault.count = 1;
  failpoint::Arm("metadb.shard_commit", commit_fault);

  // The delete half-commits: attr + distribution rows are gone from the
  // home shard (with the intent), the directory link survives on its own
  // shard. Without repair, clients would list a file nobody can open.
  EXPECT_FALSE(fs_->metadata().DeleteFile(victim).ok());
  EXPECT_GE(failpoint::HitCount("metadb.shard_commit"), 1u);
  failpoint::DisarmAll();

  EXPECT_FALSE(fs_->metadata().FileExists(victim).value());
  EXPECT_TRUE(Listed(victim.substr(1)));  // the torn state repair removes

  ASSERT_TRUE(cluster_->RestartMetad().ok());

  EXPECT_FALSE(fs_->metadata().FileExists(victim).value());
  EXPECT_FALSE(Listed(victim.substr(1)));
  ExpectConsistentOverTheWire({victim});
}

}  // namespace
}  // namespace dpfs
