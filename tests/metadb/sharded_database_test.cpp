#include "metadb/sharded_database.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "client/metadata.h"
#include "common/temp_dir.h"

namespace dpfs::metadb {
namespace {

namespace fs = std::filesystem;

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ShardedDatabaseTest, HashPathIsDeterministicFnv1a) {
  // FNV-1a offset basis: the hash of the empty string, by construction.
  EXPECT_EQ(ShardedDatabase::HashPath(""), 14695981039346656037ull);
  EXPECT_EQ(ShardedDatabase::HashPath("/a/b"), ShardedDatabase::HashPath("/a/b"));
  EXPECT_NE(ShardedDatabase::HashPath("/a"), ShardedDatabase::HashPath("/b"));
}

TEST(ShardedDatabaseTest, ShardCountBounds) {
  EXPECT_FALSE(ShardedDatabase::OpenInMemory(0).ok());
  EXPECT_FALSE(ShardedDatabase::OpenInMemory(ShardedDatabase::kMaxShards + 1).ok());
  EXPECT_TRUE(ShardedDatabase::OpenInMemory(ShardedDatabase::kMaxShards).ok());

  TempDir temp = TempDir::Create("metadb-shard-bounds").value();
  EXPECT_FALSE(ShardedDatabase::Open(temp.Sub("db"), 0).ok());
  EXPECT_FALSE(
      ShardedDatabase::Open(temp.Sub("db"), ShardedDatabase::kMaxShards + 1)
          .ok());
}

TEST(ShardedDatabaseTest, SingleShardUsesPlainLayout) {
  TempDir temp = TempDir::Create("metadb-shard-single").value();
  const fs::path dir = temp.Sub("db");
  {
    auto db = ShardedDatabase::Open(dir, 1).value();
    ASSERT_TRUE(db->shard(0).Execute("CREATE TABLE T (a INT)").ok());
    ASSERT_TRUE(db->shard(0).Execute("INSERT INTO T VALUES (1)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  EXPECT_TRUE(fs::exists(dir / "snapshot.db"));
  EXPECT_FALSE(fs::exists(dir / "shards"));
  EXPECT_FALSE(fs::exists(dir / "shard-00"));
}

TEST(ShardedDatabaseTest, ManifestRoundTripAndMismatch) {
  TempDir temp = TempDir::Create("metadb-shard-manifest").value();
  const fs::path dir = temp.Sub("db");
  {
    auto db = ShardedDatabase::Open(dir, 4).value();
    EXPECT_EQ(db->num_shards(), 4u);
  }
  EXPECT_EQ(ReadFileBytes(dir / "shards"), "shards=4\n");
  for (const char* shard : {"shard-00", "shard-01", "shard-02", "shard-03"}) {
    EXPECT_TRUE(fs::is_directory(dir / shard)) << shard;
  }
  // Matching count reopens; any other count is an explicit migration, not a
  // guess.
  EXPECT_TRUE(ShardedDatabase::Open(dir, 4).ok());
  EXPECT_FALSE(ShardedDatabase::Open(dir, 2).ok());
  EXPECT_FALSE(ShardedDatabase::Open(dir, 1).ok());
}

TEST(ShardedDatabaseTest, RefusesShardingAnUnshardedDirectory) {
  TempDir temp = TempDir::Create("metadb-shard-refuse").value();
  const fs::path dir = temp.Sub("db");
  {
    auto db = Database::Open(dir).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE T (a INT)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const Status status = ShardedDatabase::Open(dir, 4).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ShardedDatabaseTest, RoutingIsBoundedAndSpreads) {
  auto db = ShardedDatabase::OpenInMemory(4).value();
  std::set<std::size_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::string path = "/dir/file" + std::to_string(i);
    const std::size_t shard = db->ShardForPath(path);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, db->ShardForPath(path));  // stable
    seen.insert(shard);
  }
  // FNV-1a over 256 distinct paths must not collapse onto one shard.
  EXPECT_GT(seen.size(), 1u);
}

TEST(ShardedDatabaseTest, AdoptWrapsAnExistingDatabase) {
  std::shared_ptr<Database> plain = Database::OpenInMemory();
  auto db = ShardedDatabase::Adopt(plain);
  EXPECT_EQ(db->num_shards(), 1u);
  EXPECT_EQ(&db->shard(0), plain.get());
  EXPECT_EQ(db->ShardForPath("/anything"), 0u);
}

TEST(ShardedDatabaseTest, CheckpointFansOutToEveryShard) {
  TempDir temp = TempDir::Create("metadb-shard-ckpt").value();
  const fs::path dir = temp.Sub("db");
  auto db = ShardedDatabase::Open(dir, 2).value();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(db->shard(i).Execute("CREATE TABLE T (a INT)").ok());
    ASSERT_TRUE(db->shard(i).Execute("INSERT INTO T VALUES (7)").ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(fs::exists(dir / "shard-00" / "snapshot.db"));
  EXPECT_TRUE(fs::exists(dir / "shard-01" / "snapshot.db"));
  EXPECT_EQ(db->shard(0).wal_size_bytes(), 0u);
  EXPECT_EQ(db->shard(1).wal_size_bytes(), 0u);
}

// The acceptance bar for metadb_shards=1: running the metadata workload
// through the facade must leave snapshot.db and wal.log byte-identical to
// the plain unsharded engine.
TEST(ShardedDatabaseTest, SingleShardLayoutIsByteIdenticalToPlainDatabase) {
  TempDir temp = TempDir::Create("metadb-shard-bytes").value();
  const fs::path plain_dir = temp.Sub("plain");
  const fs::path facade_dir = temp.Sub("facade");

  const auto run_workload = [](client::MetadataManager& meta) {
    client::ServerInfo server;
    server.name = "s0";
    server.endpoint = {"127.0.0.1", 9000};
    server.capacity_bytes = 500'000'000;
    server.performance = 1;
    ASSERT_TRUE(meta.RegisterServer(server).ok());
    server.name = "s1";
    ASSERT_TRUE(meta.RegisterServer(server).ok());
    ASSERT_TRUE(meta.MakeDirectory("/home").ok());

    client::FileMeta file;
    file.path = "/home/data.bin";
    // A fixed id: both databases must log byte-identical rows.
    file.subfile = "/00000000000000000000000000000001";
    file.owner = "xhshen";
    file.permission = 0744;
    file.level = layout::FileLevel::kLinear;
    file.size_bytes = 128;
    file.brick_bytes = 64;
    const auto dist = layout::BrickDistribution::RoundRobin(2, 2).value();
    ASSERT_TRUE(meta.CreateFile(file, {"s0", "s1"}, dist).ok());
    ASSERT_TRUE(meta.UpdateFileSize("/home/data.bin", 96).ok());
    ASSERT_TRUE(meta.RenameFile("/home/data.bin", "/home/data2.bin").ok());

    file.path = "/home/doomed.bin";
    file.subfile = "/00000000000000000000000000000002";
    ASSERT_TRUE(meta.CreateFile(file, {"s0", "s1"}, dist).ok());
    ASSERT_TRUE(meta.DeleteFile("/home/doomed.bin").ok());
    ASSERT_TRUE(meta.MakeDirectory("/tmp").ok());
    ASSERT_TRUE(meta.RemoveDirectory("/tmp", false).ok());
  };

  {
    std::shared_ptr<ShardedDatabase> db =
        ShardedDatabase::Adopt(Database::Open(plain_dir).value());
    auto meta = client::MetadataManager::Attach(db).value();
    run_workload(*meta);
  }
  {
    std::shared_ptr<ShardedDatabase> db =
        ShardedDatabase::Open(facade_dir, 1).value();
    auto meta = client::MetadataManager::Attach(db).value();
    run_workload(*meta);
  }

  EXPECT_EQ(ReadFileBytes(plain_dir / "wal.log"),
            ReadFileBytes(facade_dir / "wal.log"));
  // Neither side checkpointed, so the snapshot is absent (or identical) in
  // both layouts.
  EXPECT_EQ(fs::exists(plain_dir / "snapshot.db"),
            fs::exists(facade_dir / "snapshot.db"));
}

}  // namespace
}  // namespace dpfs::metadb
