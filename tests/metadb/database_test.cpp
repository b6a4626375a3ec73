#include "metadb/database.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"

namespace dpfs::metadb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(Database::OpenInMemory()) {}

  ResultSet Exec(std::string_view sql) {
    Result<ResultSet> result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  /// Runs `sql` inside `txn`, expecting success.
  static ResultSet TxnExec(Transaction& txn, std::string_view sql) {
    Result<ResultSet> result = txn.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  Exec("CREATE TABLE servers (name TEXT PRIMARY KEY, perf INT)");
  Exec("INSERT INTO servers VALUES ('fast', 1), ('slow', 3)");
  const ResultSet result = Exec("SELECT * FROM servers ORDER BY name");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.GetText(0, "name").value(), "fast");
  EXPECT_EQ(result.GetInt(1, "perf").value(), 3);
}

TEST_F(DatabaseTest, CreateDuplicateTableFails) {
  Exec("CREATE TABLE t (a INT)");
  EXPECT_FALSE(db_->Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_TRUE(db_->Execute("CREATE TABLE IF NOT EXISTS t (a INT)").ok());
}

TEST_F(DatabaseTest, TableNamesAreCaseInsensitive) {
  Exec("CREATE TABLE MyTable (a INT)");
  Exec("INSERT INTO mytable VALUES (1)");
  EXPECT_EQ(Exec("SELECT * FROM MYTABLE").size(), 1u);
}

TEST_F(DatabaseTest, DropTable) {
  Exec("CREATE TABLE t (a INT)");
  Exec("DROP TABLE t");
  EXPECT_FALSE(db_->Execute("SELECT * FROM t").ok());
  EXPECT_FALSE(db_->Execute("DROP TABLE t").ok());
  EXPECT_TRUE(db_->Execute("DROP TABLE IF EXISTS t").ok());
}

TEST_F(DatabaseTest, InsertWithExplicitColumns) {
  Exec("CREATE TABLE t (a INT, b TEXT, c DOUBLE)");
  Exec("INSERT INTO t (c, a) VALUES (1.5, 7)");
  const ResultSet result = Exec("SELECT * FROM t");
  EXPECT_EQ(result.GetInt(0, "a").value(), 7);
  EXPECT_TRUE(result.GetValue(0, "b").value().is_null());
  EXPECT_DOUBLE_EQ(result.GetDouble(0, "c").value(), 1.5);
}

TEST_F(DatabaseTest, InsertArityMismatchFails) {
  Exec("CREATE TABLE t (a INT, b INT)");
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db_->Execute("INSERT INTO t (a) VALUES (1, 2)").ok());
}

TEST_F(DatabaseTest, MultiRowInsertIsAtomic) {
  Exec("CREATE TABLE t (a INT PRIMARY KEY)");
  Exec("INSERT INTO t VALUES (1)");
  // Second row conflicts; the whole statement must be rolled back.
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES (2), (1), (3)").ok());
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 1u);
}

TEST_F(DatabaseTest, SelectProjectionAndLimit) {
  Exec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 10; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
         std::to_string(i * i) + ")");
  }
  const ResultSet result = Exec("SELECT b FROM t ORDER BY b DESC LIMIT 3");
  ASSERT_EQ(result.size(), 3u);
  ASSERT_EQ(result.columns.size(), 1u);
  EXPECT_EQ(result.GetInt(0, "b").value(), 81);
  EXPECT_EQ(result.GetInt(2, "b").value(), 49);
}

TEST_F(DatabaseTest, SelectWhereOnTextAndInt) {
  Exec("CREATE TABLE files (name TEXT, size INT)");
  Exec("INSERT INTO files VALUES ('a', 10), ('b', 20), ('c', 30)");
  EXPECT_EQ(Exec("SELECT * FROM files WHERE size >= 20").size(), 2u);
  EXPECT_EQ(Exec("SELECT * FROM files WHERE name = 'b'").size(), 1u);
  EXPECT_EQ(Exec("SELECT * FROM files WHERE name != 'b' AND size < 25").size(),
            1u);
}

TEST_F(DatabaseTest, UpdateRows) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Exec("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)");
  const ResultSet result = Exec("UPDATE t SET b = 9 WHERE a >= 2");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE b = 9").size(), 2u);
}

TEST_F(DatabaseTest, UpdateAllWithoutWhere) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(Exec("UPDATE t SET a = 0").affected_rows, 2u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE a = 0").size(), 2u);
}

TEST_F(DatabaseTest, DeleteRows) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Exec("DELETE FROM t WHERE a = 2").affected_rows, 1u);
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 2u);
  EXPECT_EQ(Exec("DELETE FROM t").affected_rows, 2u);
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 0u);
}

TEST_F(DatabaseTest, TransactionCommit) {
  Exec("CREATE TABLE t (a INT)");
  {
    Transaction txn(*db_);
    TxnExec(txn, "INSERT INTO t VALUES (1)");
    TxnExec(txn, "INSERT INTO t VALUES (2)");
    EXPECT_EQ(TxnExec(txn, "SELECT * FROM t").size(), 2u);
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 2u);
}

TEST_F(DatabaseTest, TransactionRollbackRestoresInserts) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  {
    Transaction txn(*db_);
    TxnExec(txn, "INSERT INTO t VALUES (2)");
  }  // destroyed uncommitted: rolled back
  const ResultSet result = Exec("SELECT * FROM t");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.GetInt(0, "a").value(), 1);
}

TEST_F(DatabaseTest, TransactionRollbackRestoresUpdatesAndDeletes) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  {
    Transaction txn(*db_);
    TxnExec(txn, "UPDATE t SET b = 'changed' WHERE a = 1");
    TxnExec(txn, "DELETE FROM t WHERE a = 2");
    EXPECT_EQ(TxnExec(txn, "SELECT * FROM t").size(), 1u);
  }
  const ResultSet result = Exec("SELECT * FROM t ORDER BY a");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.GetText(0, "b").value(), "one");
  EXPECT_EQ(result.GetText(1, "b").value(), "two");
}

TEST_F(DatabaseTest, TransactionRollbackRestoresDdl) {
  Exec("CREATE TABLE keep (a INT)");
  Exec("INSERT INTO keep VALUES (42)");
  {
    Transaction txn(*db_);
    TxnExec(txn, "CREATE TABLE fresh (b INT)");
    TxnExec(txn, "DROP TABLE keep");
  }
  EXPECT_FALSE(db_->HasTable("fresh"));
  ASSERT_TRUE(db_->HasTable("keep"));
  EXPECT_EQ(Exec("SELECT * FROM keep").GetInt(0, "a").value(), 42);
}

TEST_F(DatabaseTest, OtherThreadsWaitForAnOpenTransaction) {
  // A reader and a writer on other threads start while a transaction holds
  // an uncommitted row: both wait until it ends, so the reader never counts
  // the table between the transaction's statements.
  Exec("CREATE TABLE t (a INT)");
  std::atomic<bool> read_done{false};
  std::atomic<bool> write_done{false};
  std::int64_t counted = -1;
  std::thread reader;
  std::thread writer;
  {
    Transaction txn(*db_);
    TxnExec(txn, "INSERT INTO t VALUES (1)");
    reader = std::thread([&] {
      counted = db_->Execute("SELECT COUNT(*) FROM t")
                    .value()
                    .GetInt(0, "count")
                    .value();
      read_done = true;
    });
    writer = std::thread([&] {
      EXPECT_TRUE(db_->Execute("INSERT INTO t VALUES (2)").ok());
      write_done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(read_done.load());
    EXPECT_FALSE(write_done.load());
    TxnExec(txn, "INSERT INTO t VALUES (3)");
    EXPECT_TRUE(txn.Commit().ok());
  }
  reader.join();
  writer.join();
  EXPECT_GE(counted, 2);  // both of the transaction's rows, or all three
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").GetInt(0, "count").value(), 3);
}

TEST_F(DatabaseTest, CommitOutsideTransactionFails) {
  // Commit ends the transaction: a second Commit, or a statement after it,
  // fails and changes nothing.
  Exec("CREATE TABLE t (a INT)");
  {
    Transaction txn(*db_);
    TxnExec(txn, "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(txn.Commit().code(), StatusCode::kInternal);
    EXPECT_EQ(txn.Execute("INSERT INTO t VALUES (2)").status().code(),
              StatusCode::kInternal);
  }
  const ResultSet result = Exec("SELECT * FROM t");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.GetInt(0, "a").value(), 1);
}

TEST_F(DatabaseTest, FailedAutoCommitStatementLeavesNoTrace) {
  Exec("CREATE TABLE t (a INT PRIMARY KEY)");
  Exec("INSERT INTO t VALUES (1)");
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 1u);
  // The failed statement's transaction has ended: the next one commits.
  Exec("INSERT INTO t VALUES (2)");
  EXPECT_EQ(Exec("SELECT * FROM t").size(), 2u);
}

TEST_F(DatabaseTest, SelectIsNull) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("INSERT INTO t (a) VALUES (1)");
  Exec("INSERT INTO t VALUES (2, 'x')");
  EXPECT_EQ(Exec("SELECT * FROM t WHERE b IS NULL").size(), 1u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE b IS NOT NULL").size(), 1u);
}

TEST_F(DatabaseTest, ResultSetToStringContainsHeaderAndValues) {
  Exec("CREATE TABLE t (name TEXT, size INT)");
  Exec("INSERT INTO t VALUES ('file1', 100)");
  const std::string rendered = Exec("SELECT * FROM t").ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("file1"), std::string::npos);
  EXPECT_NE(rendered.find("100"), std::string::npos);
}

TEST_F(DatabaseTest, TableNamesIntrospection) {
  Exec("CREATE TABLE b_table (a INT)");
  Exec("CREATE TABLE a_table (a INT)");
  const std::vector<std::string> names = db_->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a_table");  // sorted by key
  EXPECT_EQ(names[1], "b_table");
}

TEST_F(DatabaseTest, SelectWithInList) {
  Exec("CREATE TABLE t (a INT, name TEXT)");
  Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w')");
  EXPECT_EQ(Exec("SELECT * FROM t WHERE a IN (1, 3)").size(), 2u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE a NOT IN (1, 3)").size(), 2u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE name IN ('y')").size(), 1u);
  EXPECT_EQ(
      Exec("SELECT * FROM t WHERE a IN (1, 2) AND name IN ('y', 'z')").size(),
      1u);
  EXPECT_FALSE(db_->Execute("SELECT * FROM t WHERE a IN ()").ok());
  EXPECT_FALSE(db_->Execute("SELECT * FROM t WHERE a IN (1,").ok());
}

TEST_F(DatabaseTest, SelectWithLike) {
  Exec("CREATE TABLE files (name TEXT)");
  Exec("INSERT INTO files VALUES ('/home/a/x.dat'), ('/home/b/y.dat'), "
       "('/tmp/z.dat')");
  EXPECT_EQ(Exec("SELECT * FROM files WHERE name LIKE '/home/%'").size(), 2u);
  EXPECT_EQ(Exec("SELECT * FROM files WHERE name NOT LIKE '/home/%'").size(),
            1u);
  EXPECT_EQ(Exec("SELECT * FROM files WHERE name LIKE '%_.dat'").size(), 3u);
  EXPECT_FALSE(db_->Execute("SELECT * FROM files WHERE name LIKE 7").ok());
}

TEST_F(DatabaseTest, CountStar) {
  Exec("CREATE TABLE t (a INT)");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").GetInt(0, "count").value(), 0);
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").GetInt(0, "count").value(), 3);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t WHERE a >= 2")
                .GetInt(0, "count")
                .value(),
            2);
}

TEST_F(DatabaseTest, CountStarMalformedRejected) {
  Exec("CREATE TABLE t (a INT)");
  EXPECT_FALSE(db_->Execute("SELECT COUNT(a) FROM t").ok());
  EXPECT_FALSE(db_->Execute("SELECT COUNT(* FROM t").ok());
}

/// Compacts `db`'s log, closes it and opens `dir` again: the reopened
/// database holds only what the log's base carried.
std::unique_ptr<Database> CheckpointAndReopen(std::unique_ptr<Database> db,
                                              const std::filesystem::path& dir) {
  EXPECT_TRUE(db->Checkpoint().ok());
  db.reset();
  return Database::Open(dir).value();
}

TEST_F(DatabaseTest, CheckpointReproducesState) {
  // Text with quotes, commas and a NUL, NULL columns, the int64 extremes,
  // an empty table and the primary key come back from the base. Rows go in
  // through a pre-parsed InsertStmt, so no SQL literal is involved.
  const TempDir temp = TempDir::Create("metadb-base-state").value();
  const std::string text("it's a, \"quoted\"\0text", 21);
  const std::vector<Row> rows = {
      {Value("null"), Value::Null(), Value::Null()},
      {Value("min"), Value(std::numeric_limits<std::int64_t>::min()),
       Value(text)},
      {Value("max"), Value(std::numeric_limits<std::int64_t>::max()),
       Value("")},
      {Value("quote"), Value(std::int64_t{-1}), Value("'")},
      {Value("comma"), Value(std::int64_t{3}), Value(",")},
  };
  std::unique_ptr<Database> db = Database::Open(temp.path()).value();
  ASSERT_TRUE(
      db->Execute("CREATE TABLE v (k TEXT PRIMARY KEY, i INT, s TEXT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE empty_table (x INT)").ok());
  InsertStmt insert;
  insert.table = "v";
  insert.rows = rows;
  ASSERT_TRUE(db->ExecuteStatement(insert).ok());
  db = CheckpointAndReopen(std::move(db), temp.path());

  EXPECT_TRUE(db->HasTable("empty_table"));
  const ResultSet copy = db->Execute("SELECT * FROM v").value();
  ASSERT_EQ(copy.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      const Value& want = rows[r][c];
      const Value& got = copy.rows[r][c];
      ASSERT_EQ(got.type(), want.type()) << "row " << r << " col " << c;
      if (want.type() == ValueType::kInt) {
        EXPECT_EQ(got.AsInt(), want.AsInt()) << "row " << r;
      } else if (want.type() == ValueType::kText) {
        EXPECT_EQ(got.AsText(), want.AsText()) << "row " << r;
      }
    }
  }
  // The primary key came back with the rows: a duplicate still fails.
  EXPECT_EQ(db->Execute("INSERT INTO v VALUES ('min', 0, 'dup')")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db->Execute("INSERT INTO v VALUES ('new', 0, 'fresh')").ok());
  EXPECT_EQ(db->Execute("SELECT * FROM v").value().size(), rows.size() + 1);
}

TEST_F(DatabaseTest, CheckpointPreservesDoubles) {
  // Bit-exact through the base: 0.1 stays 0.1, -0.0 keeps its sign, 1e300
  // its exponent, 3.0 stays a DOUBLE and a NULL stays NULL.
  const TempDir temp = TempDir::Create("metadb-base-doubles").value();
  const std::vector<Value> values = {Value(0.1), Value(-0.0), Value(1e300),
                                     Value(3.0), Value::Null()};
  std::unique_ptr<Database> db = Database::Open(temp.path()).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (v DOUBLE)").ok());
  InsertStmt insert;
  insert.table = "t";
  for (const Value& value : values) insert.rows.push_back({value});
  ASSERT_TRUE(db->ExecuteStatement(insert).ok());
  db = CheckpointAndReopen(std::move(db), temp.path());

  const ResultSet copy = db->Execute("SELECT * FROM t").value();
  ASSERT_EQ(copy.size(), values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    const Value& want = values[r];
    const Value& got = copy.rows[r][0];
    ASSERT_EQ(got.type(), want.type()) << "row " << r;
    if (want.type() == ValueType::kDouble) {
      EXPECT_EQ(std::signbit(got.AsDouble()), std::signbit(want.AsDouble()))
          << "row " << r;
      EXPECT_EQ(got.AsDouble(), want.AsDouble()) << "row " << r;
    }
  }
}

TEST_F(DatabaseTest, ConcurrentAutoCommitStatementsAreSerialized) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, who INT)");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        if (!db_->Execute("INSERT INTO t VALUES (" + std::to_string(id) +
                          ", " + std::to_string(t) + ")")
                 .ok()) {
          failures.fetch_add(1);
        }
        // Reads interleave freely with the writers.
        if (!db_->Execute("SELECT COUNT(*) FROM t WHERE who = " +
                          std::to_string(t))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").GetInt(0, "count").value(),
            kThreads * kPerThread);
}

TEST_F(DatabaseTest, PaperMetadataTablesWorkEndToEnd) {
  // Exercise the exact table shapes from Fig 10 of the paper.
  Exec("CREATE TABLE DPFS_SERVER (server_name TEXT PRIMARY KEY, "
       "capacity INT, performance INT)");
  Exec("INSERT INTO DPFS_SERVER VALUES ('ccn40.mcs.anl.gov', 500000000, 1)");
  Exec("INSERT INTO DPFS_SERVER VALUES ('aruba.ece.nwu.edu', 300000000, 3)");
  Exec("CREATE TABLE DPFS_FILE_DISTRIBUTION (server TEXT, filename TEXT, "
       "bricklist TEXT)");
  Exec("INSERT INTO DPFS_FILE_DISTRIBUTION VALUES ('ccn40.mcs.anl.gov', "
       "'/home/xhshen/dpfs.test', '0,2,6,8,12,14,18,20,24,26,30')");
  Exec("CREATE TABLE DPFS_FILE_ATTR (filename TEXT PRIMARY KEY, owner TEXT, "
       "permission INT, size INT, filelevel TEXT, dims INT, dimsize TEXT)");
  Exec("INSERT INTO DPFS_FILE_ATTR VALUES ('/home/xhshen/dpfs.test', "
       "'xhshen', 744, 2097152, 'multidims', 2, '256,256')");

  const ResultSet join_probe = Exec(
      "SELECT bricklist FROM DPFS_FILE_DISTRIBUTION WHERE filename = "
      "'/home/xhshen/dpfs.test' AND server = 'ccn40.mcs.anl.gov'");
  ASSERT_EQ(join_probe.size(), 1u);
  EXPECT_EQ(join_probe.GetText(0, "bricklist").value(),
            "0,2,6,8,12,14,18,20,24,26,30");

  const ResultSet fastest =
      Exec("SELECT server_name FROM DPFS_SERVER WHERE performance = 1");
  ASSERT_EQ(fastest.size(), 1u);
  EXPECT_EQ(fastest.GetText(0, "server_name").value(), "ccn40.mcs.anl.gov");
}

TEST_F(DatabaseTest, OpenRefusesShardedLayout) {
  // A directory in the retired path-hash-sharded layout: a `shards`
  // manifest beside one database directory per shard. Open must refuse it,
  // naming the shard count, rather than start an empty namespace beside the
  // shards, and must leave the directory exactly as it was.
  const TempDir temp = TempDir::Create("metadb-sharded").value();
  const std::filesystem::path dir = temp.Sub("meta");
  std::filesystem::create_directories(dir / "shard-00");
  {
    std::FILE* manifest = std::fopen((dir / "shards").c_str(), "wb");
    ASSERT_NE(manifest, nullptr);
    std::fputs("shards=4\n", manifest);
    std::fclose(manifest);
  }

  const Result<std::unique_ptr<Database>> opened = Database::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("4 shards"), std::string::npos)
      << opened.status().message();
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<std::string>{"shard-00", "shards"}));
  EXPECT_TRUE(std::filesystem::is_empty(dir / "shard-00"));
}

TEST(DatabaseLockTest, TimedOutOpenNamesTheHolderPid) {
  // flock is per open-file-description, so a second Open in the same
  // process (fresh fd on the same lock file) contends exactly like another
  // process would. The timeout diagnostic must name the holder from the
  // lock file's "pid=<pid> since=<t>" record — a bare "locked" message made
  // the ASan-widened deployment startup race needlessly hard to debug.
  const TempDir temp = TempDir::Create("metadb-lock").value();
  const std::unique_ptr<Database> holder =
      Database::Open(temp.path()).value();

  const Result<std::unique_ptr<Database>> contender =
      Database::Open(temp.path(), std::chrono::milliseconds(50));
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable);
  const std::string message = contender.status().message();
  EXPECT_NE(message.find("locked by another process"), std::string::npos)
      << message;
  EXPECT_NE(message.find("pid=" + std::to_string(::getpid())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("since="), std::string::npos) << message;
}

TEST(DatabaseLockTest, LockIsReleasedOnDestruction) {
  const TempDir temp = TempDir::Create("metadb-lock-release").value();
  { const auto first = Database::Open(temp.path()).value(); }
  // No waiting needed: the destructor unlocked, so a zero-ish wait works.
  EXPECT_TRUE(Database::Open(temp.path(), std::chrono::milliseconds(50)).ok());
}

}  // namespace
}  // namespace dpfs::metadb
