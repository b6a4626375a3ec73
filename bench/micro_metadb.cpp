// Micro-benchmarks for the embedded metadata database: the operations the
// DPFS client issues on every open/create (point SELECTs, INSERTs,
// transactions), plus WAL-durable variants.
#include <benchmark/benchmark.h>

#include <string>

#include "common/temp_dir.h"
#include "metadb/database.h"
#include "metadb/sql_parser.h"

namespace {

using dpfs::TempDir;
using dpfs::metadb::Database;
using dpfs::metadb::Transaction;

void SeedServers(Database& db, int count) {
  (void)db.Execute(
      "CREATE TABLE DPFS_SERVER (server_name TEXT PRIMARY KEY, "
      "capacity INT, performance INT)");
  for (int i = 0; i < count; ++i) {
    (void)db.Execute("INSERT INTO DPFS_SERVER VALUES ('node" +
                     std::to_string(i) + ".dpfs', 500000000, " +
                     std::to_string(1 + i % 3) + ")");
  }
}

void BM_PointSelectByPrimaryKey(benchmark::State& state) {
  auto db = Database::OpenInMemory();
  SeedServers(*db, static_cast<int>(state.range(0)));
  const std::string sql =
      "SELECT * FROM DPFS_SERVER WHERE server_name = 'node" +
      std::to_string(state.range(0) / 2) + ".dpfs'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute(sql));
  }
}
BENCHMARK(BM_PointSelectByPrimaryKey)->Arg(8)->Arg(64)->Arg(512);

void BM_FullScanWithPredicate(benchmark::State& state) {
  auto db = Database::OpenInMemory();
  SeedServers(*db, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Execute("SELECT server_name FROM DPFS_SERVER WHERE "
                    "performance >= 2 AND capacity > 1000"));
  }
}
BENCHMARK(BM_FullScanWithPredicate)->Arg(8)->Arg(64)->Arg(512);

void BM_InsertAutoCommitInMemory(benchmark::State& state) {
  auto db = Database::OpenInMemory();
  (void)db->Execute("CREATE TABLE t (id INT PRIMARY KEY, payload TEXT)");
  std::int64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute(
        "INSERT INTO t VALUES (" + std::to_string(next++) + ", 'bricklist')"));
  }
}
BENCHMARK(BM_InsertAutoCommitInMemory);

void BM_InsertAutoCommitDurable(benchmark::State& state) {
  const TempDir dir = TempDir::Create("dpfs-bench-db").value();
  auto db = Database::Open(dir.path()).value();
  (void)db->Execute("CREATE TABLE t (id INT PRIMARY KEY, payload TEXT)");
  std::int64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute(
        "INSERT INTO t VALUES (" + std::to_string(next++) + ", 'bricklist')"));
  }
}
BENCHMARK(BM_InsertAutoCommitDurable);

void BM_FileCreateTransaction(benchmark::State& state) {
  // The 3-table transaction a DPFS file creation issues.
  auto db = Database::OpenInMemory();
  (void)db->Execute("CREATE TABLE attr (filename TEXT PRIMARY KEY, size INT)");
  (void)db->Execute("CREATE TABLE dist (filename TEXT, server TEXT, "
                    "bricklist TEXT)");
  (void)db->Execute("CREATE TABLE dir (main_dir TEXT PRIMARY KEY, files TEXT)");
  (void)db->Execute("INSERT INTO dir VALUES ('/', '')");
  std::int64_t next = 0;
  for (auto _ : state) {
    const std::string name = "'/f" + std::to_string(next++) + "'";
    Transaction txn(*db);
    (void)txn.Execute("INSERT INTO attr VALUES (" + name + ", 1048576)");
    (void)txn.Execute("INSERT INTO dist VALUES (" + name +
                      ", 'node0', '0,4,8,12')");
    (void)txn.Execute("INSERT INTO dist VALUES (" + name +
                      ", 'node1', '1,5,9,13')");
    (void)txn.Execute("UPDATE dir SET files = 'f' WHERE main_dir = '/'");
    benchmark::DoNotOptimize(txn.Commit());
  }
}
BENCHMARK(BM_FileCreateTransaction);

void BM_UpdateByPredicate(benchmark::State& state) {
  auto db = Database::OpenInMemory();
  SeedServers(*db, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute(
        "UPDATE DPFS_SERVER SET capacity = 400000000 WHERE performance = 2"));
  }
}
BENCHMARK(BM_UpdateByPredicate);

void BM_SqlParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpfs::metadb::ParseStatement(
        "SELECT server, bricklist FROM DPFS_FILE_DISTRIBUTION WHERE "
        "filename = '/home/xhshen/dpfs.test' AND server_index >= 0 "
        "ORDER BY server_index LIMIT 16"));
  }
}
BENCHMARK(BM_SqlParseOnly);

}  // namespace

BENCHMARK_MAIN();
