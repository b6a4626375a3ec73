// Micro-benchmarks for the embedded metadata database: the operations the
// DPFS client issues on every open/create (point SELECTs, INSERTs,
// transactions), plus WAL-durable variants, plus the `metadb_shards` sweep
// (shards x client threads) that justifies the sharded engine — numbers are
// recorded in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <optional>
#include <thread>
#include <vector>

#include "client/metadata.h"
#include "common/temp_dir.h"
#include "metadb/database.h"
#include "metadb/sharded_database.h"
#include "metadb/sql_parser.h"

namespace {

using dpfs::TempDir;
using dpfs::metadb::Database;
using dpfs::metadb::ShardedDatabase;

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
    (void)db->Execute("BEGIN");
    (void)db->Execute("INSERT INTO attr VALUES (" + name + ", 1048576)");
    (void)db->Execute("INSERT INTO dist VALUES (" + name +
                      ", 'node0', '0,4,8,12')");
    (void)db->Execute("INSERT INTO dist VALUES (" + name +
                      ", 'node1', '1,5,9,13')");
    (void)db->Execute("UPDATE dir SET files = 'f' WHERE main_dir = '/'");
    (void)db->Execute("COMMIT");
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

// --- metadb_shards sweep ---------------------------------------------------
// Full-stack MetadataManager ops against an in-memory ShardedDatabase. Each
// client thread owns its files under its own directory, so mutations spread
// across home shards by path hash; with one shard every writer serializes on
// the single transaction mutex, which is exactly the contention sharding
// removes.

struct ShardedBenchState {
  std::optional<TempDir> dir;  // durable benches only
  std::shared_ptr<ShardedDatabase> db;
  std::unique_ptr<dpfs::client::MetadataManager> meta;
  std::vector<std::vector<std::string>> files;  // [thread][i]
};

ShardedBenchState MakeShardedBench(std::size_t shards, int threads,
                                   int files_per_thread,
                                   bool durable_sync = false) {
  using namespace dpfs;
  ShardedBenchState bench;
  if (durable_sync) {
    bench.dir = TempDir::Create("dpfs-bench-sharded").value();
    bench.db = ShardedDatabase::Open(bench.dir->path(), shards).value();
  } else {
    bench.db = ShardedDatabase::OpenInMemory(shards).value();
  }
  bench.meta = client::MetadataManager::Attach(bench.db).value();

  client::ServerInfo server;
  server.name = "s0";
  server.endpoint = {"127.0.0.1", 9000};
  server.capacity_bytes = 500'000'000;
  server.performance = 1;
  (void)bench.meta->RegisterServer(server);
  server.name = "s1";
  (void)bench.meta->RegisterServer(server);

  const auto dist = layout::BrickDistribution::RoundRobin(2, 2).value();
  bench.files.resize(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const std::string dir = "/t" + std::to_string(t);
    (void)bench.meta->MakeDirectory(dir);
    // Thread t's working set co-locates on shard t mod N — the steady state
    // for a client working inside its own directory subtree, and the
    // deterministic layout that makes the shard sweep reproducible (with
    // one shard every name qualifies, so the workload is unchanged).
    const std::size_t want = static_cast<std::size_t>(t) % shards;
    for (int i = 0, j = 0; i < files_per_thread; ++j) {
      client::FileMeta meta;
      meta.path = dir + "/f" + std::to_string(j);
      if (bench.db->ShardForPath(meta.path) != want) continue;
      ++i;
      meta.subfile = client::NewSubfileId().value();
      meta.owner = "bench";
      meta.permission = 0644;
      meta.level = layout::FileLevel::kLinear;
      meta.size_bytes = 128;
      meta.brick_bytes = 64;
      (void)bench.meta->CreateFile(meta, {"s0", "s1"}, dist);
      bench.files[static_cast<std::size_t>(t)].push_back(meta.path);
    }
  }
  return bench;
}

// Mixed read/write metadata ops (one permission update + one full lookup per
// unit) from N client threads. items_per_second counts individual ops.
void BM_ShardedMetadataOps(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kFilesPerThread = 64;
  constexpr int kOpsPerThread = 256;
  ShardedBenchState bench = MakeShardedBench(shards, threads, kFilesPerThread);

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&bench, t] {
        const std::vector<std::string>& mine =
            bench.files[static_cast<std::size_t>(t)];
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::string& path = mine[static_cast<std::size_t>(i) %
                                         mine.size()];
          (void)bench.meta->SetPermission(path, 0600 + (i & 7));
          benchmark::DoNotOptimize(bench.meta->LookupFile(path));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kOpsPerThread * 2);
}
BENCHMARK(BM_ShardedMetadataOps)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 4})
    ->Args({4, 8})
    ->UseRealTime();

// Mutation throughput against a durable database with synced commits — the
// metadata-server configuration. Every mutation blocks on an fdatasync;
// with one shard those waits serialize behind the single transaction mutex,
// with N shards up to N of them overlap. This is where sharding pays even
// on a single-core metadata node.
void BM_ShardedMetadataOpsDurableSync(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kFilesPerThread = 16;
  constexpr int kOpsPerThread = 32;
  ShardedBenchState bench = MakeShardedBench(shards, threads, kFilesPerThread,
                                             /*durable_sync=*/true);
  // Seeding above ran unsynced; only the measured mutations pay the fsync.
  bench.db->SetSyncCommits(true);

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&bench, t] {
        const std::vector<std::string>& mine =
            bench.files[static_cast<std::size_t>(t)];
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::string& path = mine[static_cast<std::size_t>(i) %
                                         mine.size()];
          (void)bench.meta->SetPermission(path, 0600 + (i & 7));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kOpsPerThread);
}
BENCHMARK(BM_ShardedMetadataOpsDurableSync)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({4, 8})
    ->Args({8, 8})
    ->UseRealTime();

// Single-thread LookupFile latency — the regression guard: shards=1 must
// stay within the noise of the unsharded engine (it IS the unsharded engine
// plus one facade indirection).
void BM_ShardedLookupSingleThread(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr int kFiles = 64;
  ShardedBenchState bench = MakeShardedBench(shards, /*threads=*/1, kFiles);
  const std::vector<std::string>& files = bench.files[0];
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.meta->LookupFile(files[next]));
    next = (next + 1) % files.size();
  }
}
BENCHMARK(BM_ShardedLookupSingleThread)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4);

}  // namespace

BENCHMARK_MAIN();
