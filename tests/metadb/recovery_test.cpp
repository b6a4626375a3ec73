// Durability tests: WAL replay, compaction (Checkpoint and the automatic
// rule), torn-tail recovery, and the crash images a compaction can leave.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "metadb/database.h"

namespace dpfs::metadb {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t DiscardedBytes() {
  return metrics::GetCounter("metadb.wal_discarded_bytes").value();
}

std::uint64_t Compactions() {
  return metrics::GetHistogram("metadb.compact_us").GetSnapshot().count;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : dir_(TempDir::Create("dpfs-recovery").value()) {}

  std::unique_ptr<Database> Open() {
    Result<std::unique_ptr<Database>> db = Database::Open(dir_.path());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  /// Runs `sql` on the database, or inside a transaction on it.
  template <typename Scope>
  static void Exec(Scope& scope, std::string_view sql) {
    const Result<ResultSet> result = scope.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
  }

  /// Table t (k INT PRIMARY KEY, v TEXT) with `rows` rows of `bytes`-byte
  /// text, written in one transaction.
  static void FillLargeRows(Database& db, int rows, std::size_t bytes) {
    Exec(db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)");
    Transaction txn(db);
    for (int k = 0; k < rows; ++k) {
      Exec(txn, "INSERT INTO t VALUES (" + std::to_string(k) + ", '" +
                    std::string(bytes, 'a') + "')");
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  /// Every name in the database directory.
  std::set<std::string> DirectoryEntries() const {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_.path())) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }

  std::filesystem::path LogPath() const { return dir_.path() / "wal.log"; }

  TempDir dir_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesReopen) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT, b TEXT)");
    Exec(*db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  }
  auto db = Open();
  const ResultSet result = db->Execute("SELECT * FROM t ORDER BY a").value();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.GetText(1, "b").value(), "two");
}

TEST_F(RecoveryTest, UpdatesAndDeletesSurviveReopen) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT, b TEXT)");
    Exec(*db, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')");
    Exec(*db, "UPDATE t SET b = 'ONE' WHERE a = 1");
    Exec(*db, "DELETE FROM t WHERE a = 2");
  }
  auto db = Open();
  const ResultSet result = db->Execute("SELECT * FROM t ORDER BY a").value();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.GetText(0, "b").value(), "ONE");
  EXPECT_EQ(result.GetInt(1, "a").value(), 3);
}

TEST_F(RecoveryTest, ExplicitTransactionSurvivesReopen) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Transaction txn(*db);
    Exec(txn, "INSERT INTO t VALUES (1)");
    Exec(txn, "INSERT INTO t VALUES (2)");
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto db = Open();
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 2u);
}

TEST_F(RecoveryTest, RolledBackTransactionLeavesNoTrace) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Transaction txn(*db);
    Exec(txn, "INSERT INTO t VALUES (1)");
  }  // destroyed uncommitted: rolled back
  auto db = Open();
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 0u);
}

TEST_F(RecoveryTest, UncommittedTransactionAtCrashIsDiscarded) {
  // "Crash" while a transaction is open: the log as it stands then holds
  // none of the transaction.
  std::string crash_image;
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Transaction txn(*db);
    Exec(txn, "INSERT INTO t VALUES (99)");
    crash_image = ReadFile(LogPath());
  }
  WriteFile(LogPath(), crash_image);
  auto db = Open();
  EXPECT_TRUE(db->HasTable("t"));
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 0u);
}

TEST_F(RecoveryTest, CheckpointTruncatesWalAndPreservesData) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    for (int i = 0; i < 50; ++i) {
      Exec(*db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    const std::uint64_t before = db->wal_size_bytes();
    ASSERT_TRUE(db->Checkpoint().ok());
    // The log shrank to its base: compacting it again rewrites the same
    // bytes, and the directory holds nothing but the log and the lock.
    const std::uint64_t base = db->wal_size_bytes();
    EXPECT_LT(base, before);
    EXPECT_EQ(std::filesystem::file_size(LogPath()), base);
    const std::string base_image = ReadFile(LogPath());
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(ReadFile(LogPath()), base_image);
    EXPECT_EQ(DirectoryEntries(), (std::set<std::string>{"lock", "wal.log"}));
    // Post-checkpoint mutations are appended behind the base.
    Exec(*db, "INSERT INTO t VALUES (50)");
    EXPECT_GT(db->wal_size_bytes(), base);
  }
  auto db = Open();
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 51u);
}

TEST_F(RecoveryTest, TornWalTailIsDiscarded) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1)");
  }
  const std::uint64_t committed = std::filesystem::file_size(LogPath());
  // Append garbage to simulate a torn write at crash.
  const char garbage[] = "\x20\x00\x00\x00 torn";
  {
    std::ofstream wal(LogPath(), std::ios::binary | std::ios::app);
    wal.write(garbage, sizeof(garbage));
  }
  const std::uint64_t discarded_before = DiscardedBytes();
  auto db = Open();
  const ResultSet result = db->Execute("SELECT * FROM t").value();
  ASSERT_EQ(result.size(), 1u);
  // The dropped bytes are truncated away and counted, exactly.
  EXPECT_EQ(std::filesystem::file_size(LogPath()), committed);
  EXPECT_EQ(DiscardedBytes() - discarded_before, sizeof(garbage));
  // And the database keeps working after recovery.
  Exec(*db, "INSERT INTO t VALUES (2)");
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 2u);
}

TEST_F(RecoveryTest, CorruptedWalRecordStopsReplayAtBoundary) {
  std::uint64_t before_last = 0;
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1)");
    before_last = db->wal_size_bytes();
    Exec(*db, "INSERT INTO t VALUES (2)");
  }
  const std::uint64_t size = std::filesystem::file_size(LogPath());
  // Flip one byte near the end of the WAL (inside the last transaction).
  {
    std::fstream wal(LogPath(), std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_GT(size, 4u);
    wal.seekp(static_cast<std::streamoff>(size) - 3);
    wal.put('\xFF');
  }
  const std::uint64_t discarded_before = DiscardedBytes();
  auto db = Open();
  // The last transaction is lost, the earlier ones survive.
  const ResultSet result = db->Execute("SELECT * FROM t").value();
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(std::filesystem::file_size(LogPath()), before_last);
  EXPECT_EQ(DiscardedBytes() - discarded_before, size - before_last);
}

TEST_F(RecoveryTest, CheckpointThenMoreWritesThenReopen) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)");
    Exec(*db, "INSERT INTO t VALUES (1, 'snap')");
    ASSERT_TRUE(db->Checkpoint().ok());
    Exec(*db, "INSERT INTO t VALUES (2, 'wal')");
    Exec(*db, "UPDATE t SET b = 'snap2' WHERE a = 1");
  }
  auto db = Open();
  const ResultSet result = db->Execute("SELECT * FROM t ORDER BY a").value();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.GetText(0, "b").value(), "snap2");
  EXPECT_EQ(result.GetText(1, "b").value(), "wal");
  // Primary key survives the snapshot: duplicate insert still fails.
  EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (1, 'dup')").ok());
}

TEST_F(RecoveryTest, CheckpointWaitsForAnOpenTransaction) {
  // A checkpoint started on another thread while a transaction holds an
  // uncommitted row waits for it to end, so the rewritten log never holds
  // that row.
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    std::atomic<bool> checkpointed{false};
    std::thread checkpoint;
    {
      Transaction txn(*db);
      Exec(txn, "INSERT INTO t VALUES (1)");
      checkpoint = std::thread([&] {
        EXPECT_TRUE(db->Checkpoint().ok());
        checkpointed = true;
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      EXPECT_FALSE(checkpointed.load());
    }  // rolled back
    checkpoint.join();
  }
  auto db = Open();
  EXPECT_TRUE(db->HasTable("t"));
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 0u);
}

TEST_F(RecoveryTest, SyncCommitsStillRecover) {
  {
    auto db = Open();
    db->SetSyncCommits(true);
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1), (2)");
    Transaction txn(*db);
    Exec(txn, "INSERT INTO t VALUES (3)");
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto db = Open();
  EXPECT_EQ(db->Execute("SELECT COUNT(*) FROM t")
                .value()
                .GetInt(0, "count")
                .value(),
            3);
}

TEST_F(RecoveryTest, AutoCheckpointBoundsWalGrowth) {
  // Four 64 KiB rows rewritten 100 times append about 6.5 MiB for a state
  // of about 256 KiB: the log passes kMinCompactBytes once, compacts to its
  // base and grows from there again.
  constexpr std::size_t kRowBytes = 64 << 10;
  const std::uint64_t compactions_before = Compactions();
  {
    auto db = Open();
    FillLargeRows(*db, 4, kRowBytes);
    for (int round = 0; round < 100; ++round) {
      const char fill = static_cast<char>('b' + round % 20);
      Exec(*db, "UPDATE t SET v = '" + std::string(kRowBytes, fill) +
                    "' WHERE k = " + std::to_string(round % 4));
      EXPECT_LE(db->wal_size_bytes(), Database::kMinCompactBytes)
          << "round " << round;
    }
    EXPECT_EQ(Compactions() - compactions_before, 1u);
    EXPECT_EQ(DirectoryEntries(), (std::set<std::string>{"lock", "wal.log"}));
  }
  auto db = Open();
  const ResultSet rows = db->Execute("SELECT * FROM t ORDER BY k").value();
  ASSERT_EQ(rows.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    // Row k was last written in round 96 + k.
    const char fill = static_cast<char>('b' + (96 + k) % 20);
    EXPECT_EQ(rows.GetText(static_cast<std::size_t>(k), "v").value(),
              std::string(kRowBytes, fill))
        << "k=" << k;
  }
}

TEST_F(RecoveryTest, AutoCheckpointDefersInsideTransactions) {
  constexpr std::size_t kRowBytes = 64 << 10;
  auto db = Open();
  FillLargeRows(*db, 4, kRowBytes);
  const std::uint64_t compactions_before = Compactions();
  const std::uint64_t size_before = db->wal_size_bytes();
  {
    Transaction txn(*db);
    for (int round = 0; round < 80; ++round) {
      Exec(txn, "UPDATE t SET v = '" + std::string(kRowBytes, 'z') +
                    "' WHERE k = " + std::to_string(round % 4));
    }
    // Statements inside the txn never append or compact (the log file is
    // read from disk: the transaction holds the database's lock)...
    EXPECT_EQ(std::filesystem::file_size(LogPath()), size_before);
    EXPECT_EQ(Compactions(), compactions_before);
    // ...but the commit appends about 5 MiB, and compacts.
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(Compactions() - compactions_before, 1u);
  EXPECT_LT(db->wal_size_bytes(), Database::kMinCompactBytes);
  EXPECT_EQ(db->Execute("SELECT COUNT(*) FROM t WHERE v = '" +
                        std::string(kRowBytes, 'z') + "'")
                .value()
                .GetInt(0, "count")
                .value(),
            4);
}

TEST_F(RecoveryTest, SecondOpenBlocksUntilFirstCloses) {
  auto first = Open();
  Exec(*first, "CREATE TABLE t (a INT)");
  // While the first handle lives, a second opener times out...
  const Result<std::unique_ptr<Database>> contender =
      Database::Open(dir_.path(), std::chrono::milliseconds(100));
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable);
  // ...and succeeds once it is released.
  first.reset();
  auto second = Database::Open(dir_.path());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value()->HasTable("t"));
}

TEST_F(RecoveryTest, LockWaiterProceedsWhenHolderReleases) {
  auto holder = Open();
  std::thread releaser([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    holder.reset();
  });
  // Generous window: the waiter should get the lock shortly after release.
  const Result<std::unique_ptr<Database>> waiter =
      Database::Open(dir_.path(), std::chrono::milliseconds(3000));
  releaser.join();
  EXPECT_TRUE(waiter.ok()) << waiter.status().ToString();
}

TEST_F(RecoveryTest, DamagedBaseFailsOpenAndIsLeftAsItIs) {
  // Crash image: bytes of a compacted log's base damaged on disk. A base
  // is never torn (it is fsync'd before its rename), so damage in it is
  // data loss: Open fails and writes nothing, at every spot tried, and
  // with the base cut short by a byte.
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)");
    Exec(*db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const std::string base = ReadFile(LogPath());
  ASSERT_GT(base.size(), 40u);
  std::vector<std::string> images;
  // The base's BEGIN (its length field, then its txn id), a row in the
  // middle, and its COMMIT.
  for (const std::size_t at :
       {std::size_t{2}, std::size_t{12}, base.size() / 2, base.size() - 3}) {
    std::string image = base;
    image[at] = static_cast<char>(image[at] ^ 0x40);
    images.push_back(std::move(image));
  }
  images.push_back(base.substr(0, base.size() - 1));
  for (std::size_t i = 0; i < images.size(); ++i) {
    WriteFile(LogPath(), images[i]);
    const Result<std::unique_ptr<Database>> reopened =
        Database::Open(dir_.path());
    ASSERT_FALSE(reopened.ok()) << "image " << i;
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
        << "image " << i << ": " << reopened.status().ToString();
    EXPECT_EQ(ReadFile(LogPath()), images[i]) << "image " << i;
  }
  WriteFile(LogPath(), base);
  EXPECT_EQ(Open()->Execute("SELECT * FROM t").value().size(), 2u);
}

TEST_F(RecoveryTest, StaleRewriteTmpIsDeletedOnOpen) {
  // Crash image: a compaction died before its rename, leaving a partial
  // wal.log.tmp beside the intact log.
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1), (2), (3)");
  }
  const std::filesystem::path tmp = dir_.path() / "wal.log.tmp";
  WriteFile(tmp, std::string("\x09\x00\x00\x00garbage", 11));
  auto db = Open();
  EXPECT_EQ(db->Execute("SELECT * FROM t").value().size(), 3u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST_F(RecoveryTest, SnapshotDirectoryIsRefusedUntouched) {
  // Crash image of the retired snapshot checkpoint: a new snapshot.db
  // beside the pre-checkpoint log it had not truncated yet. Replaying the
  // log over the snapshot failed ("replay: table exists: t"), so nothing
  // could open the directory; Open now refuses it with kInvalidArgument
  // before reading or writing anything in it.
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "INSERT INTO t VALUES (1)");
  }
  // The snapshot.db the retired Checkpoint() wrote for this state.
  constexpr unsigned char kSnapshot[] = {
      0x44, 0x50, 0x46, 0x53, 0x4d, 0x44, 0x42, 0x31, 0x41, 0x00, 0x00, 0x00,
      0xdc, 0x66, 0xbf, 0xe7, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x74, 0x01, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x61, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  const std::filesystem::path snapshot = dir_.path() / "snapshot.db";
  const std::string snapshot_image(reinterpret_cast<const char*>(kSnapshot),
                                   sizeof(kSnapshot));
  WriteFile(snapshot, snapshot_image);
  const std::string log_image = ReadFile(LogPath());
  const Result<std::unique_ptr<Database>> reopened = Database::Open(dir_.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
      << reopened.status().ToString();
  EXPECT_EQ(ReadFile(snapshot), snapshot_image);
  EXPECT_EQ(ReadFile(LogPath()), log_image);
}

TEST_F(RecoveryTest, DroppedTableStaysDroppedAfterReopen) {
  {
    auto db = Open();
    Exec(*db, "CREATE TABLE t (a INT)");
    Exec(*db, "DROP TABLE t");
  }
  auto db = Open();
  EXPECT_FALSE(db->HasTable("t"));
}

}  // namespace
}  // namespace dpfs::metadb
