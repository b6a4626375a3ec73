// Crash-consistency tests driven by the wal.append / wal.sync / metadb.commit
// failpoints: the WAL is cut at every byte position of a transaction's frame
// (every record boundary and every mid-record offset), the database is
// reopened, and recovery must land exactly on the last committed transaction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/temp_dir.h"
#include "core/cluster.h"
#include "metadb/database.h"

namespace dpfs::metadb {
namespace {

class WalCrashRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  static std::unique_ptr<Database> Open(const std::filesystem::path& dir) {
    Result<std::unique_ptr<Database>> db = Database::Open(dir);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  /// Runs `sql` on the database, or inside a transaction on it.
  template <typename Scope>
  static void Exec(Scope& scope, std::string_view sql) {
    const Result<ResultSet> result = scope.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
  }

  static std::size_t Count(Database& db, const std::string& table) {
    return db.Execute("SELECT * FROM " + table).value().size();
  }
};

TEST_F(WalCrashRecoveryTest, TornAppendAtEveryByteRecoversToLastCommit) {
  // Measure the exact WAL frame size of the victim transaction (the frame
  // layout is deterministic for identical SQL), then replay the scenario
  // with the append torn at every byte offset of that frame: after BEGIN,
  // mid-record, between records, just short of COMMIT's last byte.
  std::uint64_t frame_size = 0;
  {
    const TempDir dir = TempDir::Create("dpfs-walcut").value();
    auto db = Open(dir.path());
    Exec(*db, "CREATE TABLE t (a INT, b TEXT)");
    Exec(*db, "INSERT INTO t VALUES (1, 'base')");
    const std::uint64_t before = db->wal_size_bytes();
    Exec(*db, "INSERT INTO t VALUES (2, 'victim')");
    frame_size = db->wal_size_bytes() - before;
  }
  ASSERT_GT(frame_size, 0u);

  for (std::uint64_t cut = 0; cut < frame_size; ++cut) {
    const TempDir dir = TempDir::Create("dpfs-walcut").value();
    {
      auto db = Open(dir.path());
      Exec(*db, "CREATE TABLE t (a INT, b TEXT)");
      Exec(*db, "INSERT INTO t VALUES (1, 'base')");

      failpoint::Spec spec;
      spec.action = failpoint::Action::kTornWrite;
      spec.arg = cut;
      spec.count = 1;
      failpoint::Arm("wal.append", spec);
      const Result<ResultSet> torn =
          db->Execute("INSERT INTO t VALUES (2, 'victim')");
      ASSERT_FALSE(torn.ok()) << "cut=" << cut;
      EXPECT_EQ(torn.status().code(), StatusCode::kIoError);
      // A torn append leaves the WAL object unusable — close and recover,
      // exactly as a crashed process would.
    }
    auto db = Open(dir.path());
    const ResultSet rows = db->Execute("SELECT * FROM t ORDER BY a").value();
    ASSERT_EQ(rows.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(rows.GetText(0, "b").value(), "base") << "cut=" << cut;
    // And the recovered database accepts new commits on the truncated log.
    Exec(*db, "INSERT INTO t VALUES (3, 'after')");
    EXPECT_EQ(Count(*db, "t"), 2u) << "cut=" << cut;
  }
}

TEST_F(WalCrashRecoveryTest, TornAppendRollsBackInMemoryStateImmediately) {
  const TempDir dir = TempDir::Create("dpfs-walcut").value();
  auto db = Open(dir.path());
  Exec(*db, "CREATE TABLE t (a INT)");
  Exec(*db, "INSERT INTO t VALUES (1)");

  failpoint::Spec spec;
  spec.action = failpoint::Action::kTornWrite;
  spec.arg = 5;  // mid-BEGIN-record
  spec.count = 1;
  failpoint::Arm("wal.append", spec);
  ASSERT_FALSE(db->Execute("INSERT INTO t VALUES (2)").ok());
  // The failed commit must not be visible in memory either.
  EXPECT_EQ(Count(*db, "t"), 1u);
}

TEST_F(WalCrashRecoveryTest, NoCommitIsAcknowledgedAfterATornAppend) {
  // A torn append leaves a partial frame at the log's end, and a commit
  // appended behind it would be discarded with that tail at the next open.
  // So the log refuses every later commit, naming the first failure, until
  // a reopen; reads keep working, and every row acknowledged before the
  // reopen is there after it.
  const TempDir dir = TempDir::Create("dpfs-waldead").value();
  std::vector<std::int64_t> acknowledged = {1};
  {
    auto db = Open(dir.path());
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1)");

    failpoint::Spec spec;
    spec.action = failpoint::Action::kTornWrite;
    spec.arg = 5;  // mid-BEGIN-record
    spec.count = 1;
    failpoint::Arm("wal.append", spec);
    ASSERT_FALSE(db->Execute("INSERT INTO t VALUES (2)").ok());
    for (const std::int64_t row : {3, 4}) {
      const Result<ResultSet> later =
          db->Execute("INSERT INTO t VALUES (" + std::to_string(row) + ")");
      if (later.ok()) {
        acknowledged.push_back(row);
        continue;
      }
      EXPECT_EQ(later.status().code(), StatusCode::kIoError);
      EXPECT_NE(later.status().message().find("torn after 5 bytes"),
                std::string::npos)
          << later.status().ToString();
    }
    EXPECT_EQ(acknowledged, std::vector<std::int64_t>{1});
    EXPECT_EQ(Count(*db, "t"), 1u);
  }
  auto db = Open(dir.path());
  const ResultSet rows = db->Execute("SELECT a FROM t ORDER BY a").value();
  std::vector<std::int64_t> survived;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    survived.push_back(rows.GetInt(i, "a").value());
  }
  EXPECT_EQ(survived, acknowledged);
  Exec(*db, "INSERT INTO t VALUES (5)");
  EXPECT_EQ(Count(*db, "t"), 2u);
}

TEST_F(WalCrashRecoveryTest, AnyFailedAppendRefusesWritesUntilReopen) {
  // Whether the append failed before writing, tore its frame or failed its
  // fdatasync, the log's durable end is unknown: every later commit and
  // compaction is refused, reads go on, and a reopen recovers.
  struct Case {
    const char* site;
    failpoint::Action action;
  };
  for (const Case& failure :
       {Case{"wal.append", failpoint::Action::kReturnError},
        Case{"wal.append", failpoint::Action::kTornWrite},
        Case{"wal.sync", failpoint::Action::kReturnError}}) {
    const std::string label =
        std::string(failure.site) + " action " +
        std::to_string(static_cast<int>(failure.action));
    const TempDir dir = TempDir::Create("dpfs-walrefuse").value();
    {
      auto db = Open(dir.path());
      db->SetSyncCommits(true);
      Exec(*db, "CREATE TABLE t (a INT)");
      Exec(*db, "INSERT INTO t VALUES (1)");
      failpoint::Spec spec;
      spec.action = failure.action;
      spec.arg = 5;
      spec.count = 1;
      failpoint::Arm(failure.site, spec);
      ASSERT_FALSE(db->Execute("INSERT INTO t VALUES (2)").ok()) << label;
      const Status later = db->Execute("INSERT INTO t VALUES (3)").status();
      EXPECT_FALSE(later.ok()) << label;
      EXPECT_NE(later.message().find("until the database is reopened"),
                std::string::npos)
          << label << ": " << later.ToString();
      EXPECT_FALSE(db->Checkpoint().ok()) << label;
      EXPECT_EQ(Count(*db, "t"), 1u) << label;
    }
    auto db = Open(dir.path());
    Exec(*db, "INSERT INTO t VALUES (4)");
    const ResultSet rows = db->Execute("SELECT a FROM t ORDER BY a").value();
    EXPECT_EQ(rows.GetInt(0, "a").value(), 1) << label;
    EXPECT_EQ(rows.GetInt(rows.size() - 1, "a").value(), 4) << label;
    EXPECT_EQ(db->Execute("SELECT a FROM t WHERE a = 3").value().size(), 0u)
        << label;
  }
}

TEST_F(WalCrashRecoveryTest, CrashBeforeSyncLeavesFlushedCommitAmbiguous) {
  // wal.sync models a crash after fwrite+fflush but before fdatasync: the
  // commit is reported failed, yet the frame reached the OS. Without a real
  // power cut the bytes survive, so reopen legitimately replays the txn —
  // the classic durability ambiguity a failed-sync commit must tolerate.
  const TempDir dir = TempDir::Create("dpfs-walsync").value();
  {
    auto db = Open(dir.path());
    db->SetSyncCommits(true);
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1)");

    failpoint::Spec spec;
    spec.action = failpoint::Action::kReturnError;
    spec.count = 1;
    failpoint::Arm("wal.sync", spec);
    const Result<ResultSet> failed = db->Execute("INSERT INTO t VALUES (2)");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(Count(*db, "t"), 1u);  // rolled back in memory
  }
  auto db = Open(dir.path());
  EXPECT_EQ(Count(*db, "t"), 2u);  // ...but the flushed frame replayed
}

TEST_F(WalCrashRecoveryTest, CommitFailpointRollsBackAndDatabaseKeepsWorking) {
  const TempDir dir = TempDir::Create("dpfs-commit").value();
  auto db = Open(dir.path());
  Exec(*db, "CREATE TABLE t (a INT)");

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kIoError;
  spec.count = 1;
  failpoint::Arm("metadb.commit", spec);
  EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(Count(*db, "t"), 0u);

  // metadb.commit fires before the WAL is touched, so unlike a torn append
  // the same handle stays usable.
  Exec(*db, "INSERT INTO t VALUES (2)");
  EXPECT_EQ(Count(*db, "t"), 1u);
}

TEST_F(WalCrashRecoveryTest, ExplicitMultiOpTransactionTornMidFrame) {
  // A multi-statement transaction is one WAL frame; tearing it mid-way must
  // lose the whole batch, never a prefix of its operations.
  std::uint64_t frame_size = 0;
  {
    const TempDir dir = TempDir::Create("dpfs-walbatch").value();
    auto db = Open(dir.path());
    Exec(*db, "CREATE TABLE t (a INT)");
    const std::uint64_t before = db->wal_size_bytes();
    {
      Transaction txn(*db);
      Exec(txn, "INSERT INTO t VALUES (1)");
      Exec(txn, "INSERT INTO t VALUES (2)");
      Exec(txn, "INSERT INTO t VALUES (3)");
      ASSERT_TRUE(txn.Commit().ok());
    }
    frame_size = db->wal_size_bytes() - before;
  }
  ASSERT_GT(frame_size, 0u);

  // Cut at the quartile offsets (the per-byte sweep above covers the dense
  // single-op case; here the point is multi-op atomicity).
  for (const std::uint64_t cut :
       {std::uint64_t{0}, frame_size / 4, frame_size / 2,
        3 * frame_size / 4, frame_size - 1}) {
    const TempDir dir = TempDir::Create("dpfs-walbatch").value();
    {
      auto db = Open(dir.path());
      Exec(*db, "CREATE TABLE t (a INT)");
      Transaction txn(*db);
      Exec(txn, "INSERT INTO t VALUES (1)");
      Exec(txn, "INSERT INTO t VALUES (2)");
      Exec(txn, "INSERT INTO t VALUES (3)");

      failpoint::Spec spec;
      spec.action = failpoint::Action::kTornWrite;
      spec.arg = cut;
      spec.count = 1;
      failpoint::Arm("wal.append", spec);
      ASSERT_FALSE(txn.Commit().ok()) << "cut=" << cut;
    }
    auto db = Open(dir.path());
    EXPECT_EQ(Count(*db, "t"), 0u) << "cut=" << cut;  // all or nothing
  }
}

TEST_F(WalCrashRecoveryTest, FourMetadataTablesRecoverToLastCommittedTxn) {
  // End to end through the real metadata schema: a durable cluster creates
  // a file (one committed txn across DPFS_FILE_ATTR, DPFS_FILE_DISTRIBUTION
  // and DPFS_DIRECTORY), then a second create dies on a torn WAL append.
  // After "reboot", all four tables hold exactly the committed state.
  const TempDir root = TempDir::Create("dpfs-metacrash").value();
  {
    core::ClusterOptions options;
    options.num_servers = 2;
    options.durable_metadata = true;
    options.root_dir = root.path();
    auto cluster = core::LocalCluster::Start(std::move(options)).value();

    client::CreateOptions create;
    create.total_bytes = 1024;
    create.brick_bytes = 256;
    ASSERT_TRUE(cluster->fs()->Create("/survivor.bin", create).ok());

    failpoint::Spec spec;
    spec.action = failpoint::Action::kTornWrite;
    spec.arg = 10;
    spec.count = 1;
    failpoint::Arm("wal.append", spec);
    EXPECT_FALSE(cluster->fs()->Create("/victim.bin", create).ok());
    // Crash: tear the cluster down with the WAL torn.
  }
  auto db = Open(root.path() / "metadb");
  EXPECT_EQ(Count(*db, "DPFS_SERVER"), 2u);
  EXPECT_EQ(Count(*db, "DPFS_FILE_ATTR"), 1u);
  EXPECT_EQ(Count(*db, "DPFS_FILE_DISTRIBUTION"), 2u);  // one row per server
  const ResultSet attr =
      db->Execute("SELECT * FROM DPFS_FILE_ATTR").value();
  EXPECT_EQ(attr.GetText(0, "filename").value(), "/survivor.bin");
  // Root directory lists only the committed file.
  const ResultSet dir =
      db->Execute("SELECT * FROM DPFS_DIRECTORY").value();
  ASSERT_EQ(dir.size(), 1u);
  const std::string files = dir.GetText(0, "files").value();
  EXPECT_NE(files.find("survivor.bin"), std::string::npos);
  EXPECT_EQ(files.find("victim.bin"), std::string::npos);
}

}  // namespace
}  // namespace dpfs::metadb
