// Crash-atomicity of the cross-shard intent protocol (docs/METADATA_SCHEMA.md
// "Sharding"): the `metadb.shard_commit` failpoint aborts a mutation between
// shard commits, the database is torn down mid-protocol (the crash), and the
// repair pass in MetadataManager::Attach must roll the intent forward so no
// file is ever visible in a directory without its attribute + distribution
// rows, or vice versa.
//
// The suite name contains "Chaos" so the asan-faults/tsan-faults ctest
// presets pick it up.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "client/metadata.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "common/temp_dir.h"
#include "metadb/sharded_database.h"
#include "metadb/sql_ast.h"

namespace dpfs::client {
namespace {

constexpr std::size_t kShards = 4;
constexpr char kShardCommit[] = "metadb.shard_commit";

class MetadataShardChaosTest : public ::testing::Test {
 protected:
  MetadataShardChaosTest()
      : temp_(TempDir::Create("metadb-shard-chaos").value()) {
    Open();
    ServerInfo server;
    server.name = "s0";
    server.endpoint = {"127.0.0.1", 9000};
    server.capacity_bytes = 500'000'000;
    server.performance = 1;
    EXPECT_TRUE(manager_->RegisterServer(server).ok());
    server.name = "s1";
    EXPECT_TRUE(manager_->RegisterServer(server).ok());
  }

  void TearDown() override { failpoint::DisarmAll(); }

  /// Simulated crash: drop the manager and every shard (all in-memory state,
  /// including any open transaction, is lost; committed WAL records are
  /// not), then reopen. Attach replays the WALs and rolls pending intents
  /// forward.
  void CrashAndRecover() {
    failpoint::DisarmAll();
    Open();
  }

  void ArmShardCommitCrash(int skip = 0) {
    failpoint::Spec spec;
    spec.action = failpoint::Action::kReturnError;
    spec.code = StatusCode::kUnavailable;
    spec.message = "injected crash between shard commits";
    spec.skip = skip;
    failpoint::Arm(kShardCommit, spec);
  }

  /// First "<dir>/<stem><i>" whose home shard differs from `dir`'s shard —
  /// forcing the mutation through the cross-shard intent protocol.
  std::string CrossShardChild(const std::string& dir,
                              const std::string& stem) {
    const std::size_t dir_shard = db_->ShardForPath(dir);
    for (int i = 0;; ++i) {
      const std::string path =
          (dir == "/" ? "/" : dir + "/") + stem + std::to_string(i);
      if (db_->ShardForPath(path) != dir_shard) return path;
    }
  }

  /// First "/<stem><i>" on a shard different from both `avoid` paths.
  std::string PathAvoidingShardsOf(const std::string& avoid_a,
                                   const std::string& avoid_b,
                                   const std::string& stem) {
    for (int i = 0;; ++i) {
      const std::string path = "/" + stem + std::to_string(i);
      if (db_->ShardForPath(path) != db_->ShardForPath(avoid_a) &&
          db_->ShardForPath(path) != db_->ShardForPath(avoid_b)) {
        return path;
      }
    }
  }

  FileMeta MakeLinearMeta(const std::string& path) {
    FileMeta meta;
    meta.path = path;
    meta.subfile = NewSubfileId().value();
    meta.owner = "xhshen";
    meta.permission = 0744;
    meta.level = layout::FileLevel::kLinear;
    meta.size_bytes = 128;
    meta.brick_bytes = 64;
    return meta;
  }

  Status CreateTestFile(const std::string& path) {
    const auto dist = layout::BrickDistribution::RoundRobin(2, 2).value();
    return manager_->CreateFile(MakeLinearMeta(path), {"s0", "s1"}, dist);
  }

  bool Listed(const std::string& dir, const std::string& name, bool file) {
    const MetadataManager::Listing listing =
        manager_->ListDirectory(dir).value();
    const std::vector<std::string>& names =
        file ? listing.files : listing.directories;
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  /// The PR's atomicity invariant, checked globally: every listed file
  /// resolves (attr + distribution rows present), every attribute row is
  /// linked into its parent directory, and no intent records survive repair.
  void ExpectConsistent() {
    for (std::size_t i = 0; i < db_->num_shards(); ++i) {
      const metadb::ResultSet attrs =
          db_->shard(i).Execute("SELECT filename FROM DPFS_FILE_ATTR").value();
      for (std::size_t r = 0; r < attrs.size(); ++r) {
        const std::string path = attrs.GetText(r, "filename").value();
        const auto [parent, name] = SplitPath(path);
        EXPECT_TRUE(Listed(parent, name, /*file=*/true))
            << path << " has attr rows but is not in its directory";
        EXPECT_TRUE(manager_->LookupFile(path).ok()) << path;
      }
      const metadb::ResultSet intents =
          db_->shard(i).Execute("SELECT src FROM DPFS_INTENT").value();
      EXPECT_TRUE(intents.empty())
          << "shard " << i << " still holds " << intents.size() << " intents";
    }
    const MetadataManager::Listing root = manager_->ListDirectory("/").value();
    for (const std::string& name : root.files) {
      EXPECT_TRUE(manager_->LookupFile("/" + name).ok())
          << "/" << name << " is listed but has no metadata rows";
    }
  }

  void Open() {
    manager_.reset();
    db_.reset();
    std::unique_ptr<metadb::ShardedDatabase> db =
        metadb::ShardedDatabase::Open(temp_.Sub("meta"), kShards).value();
    db_ = std::move(db);
    manager_ = MetadataManager::Attach(db_).value();
  }

  TempDir temp_;
  std::shared_ptr<metadb::ShardedDatabase> db_;
  std::unique_ptr<MetadataManager> manager_;
};

TEST_F(MetadataShardChaosTest, CreateRollsForwardAfterCrash) {
  const std::string file = CrossShardChild("/", "f");
  ArmShardCommitCrash();
  EXPECT_FALSE(CreateTestFile(file).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  EXPECT_TRUE(manager_->FileExists(file).value());
  EXPECT_TRUE(Listed("/", file.substr(1), /*file=*/true));
  EXPECT_TRUE(manager_->LookupFile(file).ok());
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, DeleteRollsForwardAfterCrash) {
  const std::string file = CrossShardChild("/", "f");
  ASSERT_TRUE(CreateTestFile(file).ok());

  ArmShardCommitCrash();
  EXPECT_FALSE(manager_->DeleteFile(file).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  // The home-shard commit (attr + distribution deletes + intent) decides the
  // outcome; repair finishes the directory unlink.
  EXPECT_FALSE(manager_->FileExists(file).value());
  EXPECT_FALSE(Listed("/", file.substr(1), /*file=*/true));
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, RenameRollsForwardAcrossHomeShards) {
  const std::string src = CrossShardChild("/", "src");
  const std::string dst = PathAvoidingShardsOf(src, "/", "dst");
  ASSERT_TRUE(CreateTestFile(src).ok());

  ArmShardCommitCrash();
  EXPECT_FALSE(manager_->RenameFile(src, dst).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  const FileRecord record = manager_->LookupFile(dst).value();
  EXPECT_EQ(record.meta.owner, "xhshen");
  EXPECT_EQ(record.servers.size(), 2u);
  EXPECT_FALSE(manager_->FileExists(src).value());
  EXPECT_TRUE(Listed("/", dst.substr(1), /*file=*/true));
  EXPECT_FALSE(Listed("/", src.substr(1), /*file=*/true));
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, RenameCrashBetweenFollowerCommits) {
  // skip=1 lets the first follower commit land, then kills the protocol —
  // the nastiest interleaving: destination rows applied, directory links
  // not, intent still pending.
  const std::string src = CrossShardChild("/", "src");
  const std::string dst = PathAvoidingShardsOf(src, "/", "dst");
  ASSERT_TRUE(CreateTestFile(src).ok());

  ArmShardCommitCrash(/*skip=*/1);
  EXPECT_FALSE(manager_->RenameFile(src, dst).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  EXPECT_TRUE(manager_->LookupFile(dst).ok());
  EXPECT_FALSE(manager_->FileExists(src).value());
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, AttachReplaysOldRenameIntentThenDropsAccessLog) {
  // A database from before the access log was retired: every shard has a
  // DPFS_ACCESS_LOG table, and a cross-shard rename stopped after its home
  // commit. In that format the intent payload carries the file's access-log
  // rows after its attribute and distribution rows. Attach must replay the
  // rename while the table still exists, then drop the table.
  const std::string src = CrossShardChild("/", "src");
  const std::string dst = PathAvoidingShardsOf(src, "/", "dst");
  ASSERT_TRUE(CreateTestFile(src).ok());
  ASSERT_TRUE(CreateTestFile("/kept").ok());
  for (std::size_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(db_->shard(i)
                    .Execute("CREATE TABLE DPFS_ACCESS_LOG (filename TEXT, "
                             "direction TEXT, requests INT, transfer INT, "
                             "useful INT)")
                    .ok());
  }
  ASSERT_TRUE(db_->shard(db_->ShardForPath("/kept"))
                  .Execute("INSERT INTO DPFS_ACCESS_LOG VALUES "
                           "('/kept', 'read', 1, 64, 64)")
                  .ok());

  ArmShardCommitCrash();
  EXPECT_FALSE(manager_->RenameFile(src, dst).ok());
  metadb::Database& home = db_->shard(db_->ShardForPath(src));
  const metadb::ResultSet intent =
      home.Execute("SELECT payload FROM DPFS_INTENT").value();
  ASSERT_EQ(intent.size(), 1u);
  const std::string payload = intent.GetText(0, "payload").value() + '\x1e' +
                              "INSERT INTO DPFS_ACCESS_LOG VALUES ('" + dst +
                              "', 'read', 4, 4096, 4096)";
  ASSERT_TRUE(home.Execute("DELETE FROM DPFS_INTENT").ok());
  metadb::InsertStmt old_intent;
  old_intent.table = "DPFS_INTENT";
  old_intent.rows.push_back({src, "rename", dst, payload});
  ASSERT_TRUE(home.ExecuteStatement(std::move(old_intent)).ok());

  CrashAndRecover();
  EXPECT_TRUE(manager_->LookupFile(dst).ok());
  EXPECT_FALSE(manager_->FileExists(src).value());
  EXPECT_TRUE(Listed("/", dst.substr(1), /*file=*/true));
  EXPECT_TRUE(manager_->LookupFile("/kept").ok());
  ExpectConsistent();
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_FALSE(db_->shard(i).HasTable("DPFS_ACCESS_LOG")) << "shard " << i;
  }

  // The drop is durable: the next attach finds the four tables only.
  CrashAndRecover();
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_FALSE(db_->shard(i).HasTable("DPFS_ACCESS_LOG")) << "shard " << i;
  }
  EXPECT_TRUE(manager_->LookupFile(dst).ok());
}

TEST_F(MetadataShardChaosTest, MakeDirectoryRollsForwardAfterCrash) {
  const std::string dir = CrossShardChild("/", "d");
  ArmShardCommitCrash();
  EXPECT_FALSE(manager_->MakeDirectory(dir).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  EXPECT_TRUE(manager_->DirectoryExists(dir).value());
  EXPECT_TRUE(Listed("/", dir.substr(1), /*file=*/false));
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, RemoveDirectoryRollsForwardAfterCrash) {
  const std::string dir = CrossShardChild("/", "d");
  ASSERT_TRUE(manager_->MakeDirectory(dir).ok());

  ArmShardCommitCrash();
  EXPECT_FALSE(manager_->RemoveDirectory(dir, /*recursive=*/false).ok());
  EXPECT_GE(failpoint::HitCount(kShardCommit), 1u);

  CrashAndRecover();
  EXPECT_FALSE(manager_->DirectoryExists(dir).value());
  EXPECT_FALSE(Listed("/", dir.substr(1), /*file=*/false));
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, RepairIsIdempotentAcrossRepeatedCrashes) {
  const std::string file = CrossShardChild("/", "f");
  ArmShardCommitCrash();
  EXPECT_FALSE(CreateTestFile(file).ok());

  CrashAndRecover();
  CrashAndRecover();  // a second repair pass must be a no-op
  EXPECT_TRUE(manager_->FileExists(file).value());
  ExpectConsistent();
}

TEST_F(MetadataShardChaosTest, FailureWithoutCrashLeavesIntentForNextAttach) {
  // A mid-protocol error without a process crash surfaces the failure; the
  // intent waits on the home shard until the next Attach repairs it.
  const std::string file = CrossShardChild("/", "f");
  ArmShardCommitCrash();
  EXPECT_FALSE(CreateTestFile(file).ok());
  failpoint::DisarmAll();

  bool found_intent = false;
  for (std::size_t i = 0; i < db_->num_shards(); ++i) {
    const metadb::ResultSet intents =
        db_->shard(i).Execute("SELECT src FROM DPFS_INTENT").value();
    if (!intents.empty()) found_intent = true;
  }
  EXPECT_TRUE(found_intent);

  CrashAndRecover();
  EXPECT_TRUE(manager_->FileExists(file).value());
  ExpectConsistent();
}

}  // namespace
}  // namespace dpfs::client
