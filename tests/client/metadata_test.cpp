#include "client/metadata.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/temp_dir.h"

namespace dpfs::client {
namespace {

class MetadataTest : public ::testing::Test {
 protected:
  MetadataTest() {
    manager_ =
        MetadataManager::Attach(metadb::Database::OpenInMemory()).value();
  }

  ServerInfo MakeServer(const std::string& name, std::uint32_t performance) {
    ServerInfo server;
    server.name = name;
    server.endpoint = {"127.0.0.1", 9000};
    server.capacity_bytes = 500'000'000;
    server.performance = performance;
    return server;
  }

  /// A 2-brick linear file.
  FileMeta MakeLinearMeta(const std::string& path) {
    FileMeta meta;
    meta.path = path;
    meta.owner = "xhshen";
    meta.permission = 0744;
    meta.level = layout::FileLevel::kLinear;
    meta.size_bytes = 128;
    meta.brick_bytes = 64;
    return meta;
  }

  std::unique_ptr<MetadataManager> manager_;
};

TEST_F(MetadataTest, TablesCreatedOnAttach) {
  // A fresh database holds exactly the paper's four tables.
  std::vector<std::string> names = manager_->db().TableNames();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"DPFS_DIRECTORY",
                                             "DPFS_FILE_ATTR",
                                             "DPFS_FILE_DISTRIBUTION",
                                             "DPFS_SERVER"}));
}

TEST_F(MetadataTest, AttachDropsRetiredAccessLog) {
  // A database from before the access log was retired has a fifth table,
  // DPFS_ACCESS_LOG. Attach drops it, durably, and the files stay.
  const TempDir temp = TempDir::Create("metadata-access-log").value();
  const std::filesystem::path dir = temp.Sub("meta");
  {
    std::shared_ptr<metadb::Database> db = metadb::Database::Open(dir).value();
    auto manager = MetadataManager::Attach(db).value();
    ASSERT_TRUE(manager->RegisterServer(MakeServer("s0", 1)).ok());
    ASSERT_TRUE(manager->RegisterServer(MakeServer("s1", 1)).ok());
    ASSERT_TRUE(manager->CreateFile(MakeLinearMeta("/kept"), {}).ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE DPFS_ACCESS_LOG (filename TEXT, "
                            "direction TEXT, requests INT, transfer INT, "
                            "useful INT)")
                    .ok());
    ASSERT_TRUE(db->Execute("INSERT INTO DPFS_ACCESS_LOG VALUES "
                            "('/kept', 'read', 1, 64, 64)")
                    .ok());
  }
  for (int attach = 0; attach < 2; ++attach) {
    std::shared_ptr<metadb::Database> db = metadb::Database::Open(dir).value();
    auto manager = MetadataManager::Attach(db).value();
    EXPECT_FALSE(db->HasTable("DPFS_ACCESS_LOG")) << "attach " << attach;
    EXPECT_EQ(db->TableNames().size(), 4u);
    EXPECT_TRUE(manager->LookupFile("/kept").ok());
  }
}

TEST_F(MetadataTest, AttachIsIdempotent) {
  // Re-attach to the same database must not fail on existing tables.
  std::shared_ptr<metadb::Database> db = metadb::Database::OpenInMemory();
  auto first = MetadataManager::Attach(db);
  ASSERT_TRUE(first.ok());
  auto second = MetadataManager::Attach(db);
  EXPECT_TRUE(second.ok());
}

TEST_F(MetadataTest, RegisterListLookupServers) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("beta.dpfs", 3)).ok());
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("alpha.dpfs", 1)).ok());
  const std::vector<ServerInfo> servers = manager_->ListServers().value();
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[0].name, "alpha.dpfs");  // sorted by name
  EXPECT_EQ(servers[1].performance, 3u);
  EXPECT_EQ(servers[1].capacity_bytes, 500'000'000u);
}

TEST_F(MetadataTest, DuplicateServerRejected) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("a", 1)).ok());
  EXPECT_FALSE(manager_->RegisterServer(MakeServer("a", 2)).ok());
}

TEST_F(MetadataTest, UnregisterServer) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("a", 1)).ok());
  EXPECT_TRUE(manager_->UnregisterServer("a").ok());
  EXPECT_FALSE(manager_->UnregisterServer("a").ok());
}

TEST_F(MetadataTest, DirectoryTree) {
  EXPECT_TRUE(manager_->DirectoryExists("/").value());
  ASSERT_TRUE(manager_->MakeDirectory("/home").ok());
  ASSERT_TRUE(manager_->MakeDirectory("/home/xhshen").ok());
  EXPECT_TRUE(manager_->DirectoryExists("/home/xhshen").value());

  const auto root = manager_->ListDirectory("/").value();
  ASSERT_EQ(root.directories.size(), 1u);
  EXPECT_EQ(root.directories[0], "home");

  // Parent must exist.
  EXPECT_FALSE(manager_->MakeDirectory("/no/parent").ok());
  // Duplicates rejected.
  EXPECT_FALSE(manager_->MakeDirectory("/home").ok());
}

TEST_F(MetadataTest, RemoveDirectory) {
  ASSERT_TRUE(manager_->MakeDirectory("/a").ok());
  ASSERT_TRUE(manager_->MakeDirectory("/a/b").ok());
  // Non-empty fails.
  EXPECT_FALSE(manager_->RemoveDirectory("/a").ok());
  EXPECT_TRUE(manager_->RemoveDirectory("/a/b").ok());
  EXPECT_TRUE(manager_->RemoveDirectory("/a").ok());
  EXPECT_FALSE(manager_->DirectoryExists("/a").value());
  // Root cannot be removed.
  EXPECT_FALSE(manager_->RemoveDirectory("/").ok());
}

TEST_F(MetadataTest, CreateAndLookupFile) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s1", 1)).ok());
  const FileRecord created =
      manager_->CreateFile(MakeLinearMeta("/data.bin"), {}).value();

  const FileRecord record = manager_->LookupFile("/data.bin").value();
  EXPECT_EQ(record.meta.subfile, created.meta.subfile);
  EXPECT_EQ(record.meta.owner, "xhshen");
  EXPECT_EQ(record.meta.level, layout::FileLevel::kLinear);
  EXPECT_EQ(record.meta.size_bytes, 128u);
  EXPECT_EQ(record.meta.brick_bytes, 64u);
  ASSERT_EQ(record.servers.size(), 2u);
  EXPECT_EQ(record.servers[0].name, "s0");
  EXPECT_EQ(record.distribution.server_for(0), 0u);
  EXPECT_EQ(record.distribution.server_for(1), 1u);

  // The file is linked into its parent directory.
  const auto listing = manager_->ListDirectory("/").value();
  ASSERT_EQ(listing.files.size(), 1u);
  EXPECT_EQ(listing.files[0], "data.bin");
}

TEST_F(MetadataTest, CreateNeedsARegisteredServer) {
  EXPECT_EQ(manager_->CreateFile(MakeLinearMeta("/f"), {}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(manager_->FileExists("/f").value());
}

TEST_F(MetadataTest, CreateRefusesReplicationZeroAndMisSizedDomains) {
  // Every rank, R = 1 included, is placed by ReplicatedDistribution::Create:
  // a factor of 0, and failure domains that do not match the server count,
  // are refused, and nothing is written.
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s1", 1)).ok());
  PlacementHints zero;
  zero.replication.factor = 0;
  EXPECT_EQ(manager_->CreateFile(MakeLinearMeta("/zero"), zero).status().code(),
            StatusCode::kInvalidArgument);
  PlacementHints domains;
  domains.replication.domains = {0, 1, 2};
  EXPECT_EQ(
      manager_->CreateFile(MakeLinearMeta("/domains"), domains).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(manager_->ListDirectory("/").value().files.empty());
  EXPECT_TRUE(
      manager_->db().Execute("SELECT * FROM DPFS_FILE_ATTR").value().empty());
}

TEST_F(MetadataTest, LookupMapsServersByNameAndRefusesAnUnregisteredOne) {
  // The lookup reads the server table once and maps each distribution
  // row's name into it: the record keeps the file's server order, not the
  // table's, and a row naming a server no longer registered is kNotFound.
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s1", 3)).ok());
  ASSERT_TRUE(manager_->CreateFile(MakeLinearMeta("/data.bin"), {}).ok());
  // "a0" sorts first, so the table's order is now a0, s0, s1.
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("a0", 1)).ok());
  const FileRecord record = manager_->LookupFile("/data.bin").value();
  ASSERT_EQ(record.servers.size(), 2u);
  EXPECT_EQ(record.servers[0].name, "s0");
  EXPECT_EQ(record.servers[1].name, "s1");
  EXPECT_EQ(record.servers[1].performance, 3u);

  ASSERT_TRUE(manager_->UnregisterServer("s0").ok());
  const Status lookup = manager_->LookupFile("/data.bin").status();
  EXPECT_EQ(lookup.code(), StatusCode::kNotFound);
  EXPECT_NE(lookup.message().find("s0"), std::string::npos);
}

TEST_F(MetadataTest, CreateFileInMissingDirectoryFails) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  EXPECT_EQ(manager_->CreateFile(MakeLinearMeta("/no/dir/f"), {}).status().code(),
            StatusCode::kNotFound);
  // The failed transaction must leave no attribute row behind.
  EXPECT_FALSE(manager_->FileExists("/no/dir/f").value());
}

TEST_F(MetadataTest, DuplicateFileRejected) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->CreateFile(MakeLinearMeta("/f"), {}).ok());
  EXPECT_EQ(manager_->CreateFile(MakeLinearMeta("/f"), {}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(MetadataTest, MultidimFileRoundTrip) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  FileMeta meta;
  meta.path = "/array.dpfs";
  meta.owner = "me";
  meta.level = layout::FileLevel::kMultidim;
  meta.element_size = 8;
  meta.array_shape = {256, 256};
  meta.brick_shape = {64, 64};
  meta.size_bytes = 256 * 256 * 8;
  const auto map = meta.MakeBrickMap().value();
  EXPECT_EQ(map.num_bricks(), 16u);
  ASSERT_TRUE(manager_->CreateFile(meta, {}).ok());

  const FileRecord record = manager_->LookupFile("/array.dpfs").value();
  EXPECT_EQ(record.meta.level, layout::FileLevel::kMultidim);
  EXPECT_EQ(record.meta.array_shape, (layout::Shape{256, 256}));
  EXPECT_EQ(record.meta.brick_shape, (layout::Shape{64, 64}));
  EXPECT_EQ(record.meta.element_size, 8u);
  EXPECT_EQ(record.meta.MakeBrickMap().value().num_bricks(), 16u);
}

TEST_F(MetadataTest, ArrayFileRoundTripWithPattern) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  FileMeta meta;
  meta.path = "/chunked.dpfs";
  meta.owner = "me";
  meta.level = layout::FileLevel::kArray;
  meta.element_size = 1;
  meta.array_shape = {64, 64};
  meta.pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  meta.chunk_grid = {2, 2};
  meta.size_bytes = 64 * 64;
  ASSERT_TRUE(manager_->CreateFile(meta, {}).ok());

  const FileRecord record = manager_->LookupFile("/chunked.dpfs").value();
  ASSERT_TRUE(record.meta.pattern.has_value());
  EXPECT_EQ(record.meta.pattern->ToString(), "(BLOCK,BLOCK)");
  EXPECT_EQ(record.meta.chunk_grid, (layout::Shape{2, 2}));
}

TEST_F(MetadataTest, GreedyDistributionBricklistSurvivesRoundTrip) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("fast", 1)).ok());
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("slow", 3)).ok());
  FileMeta meta = MakeLinearMeta("/g");
  meta.size_bytes = 32 * 64;
  const auto dist = layout::BrickDistribution::Greedy(32, {1, 3}).value();
  PlacementHints greedy;
  greedy.policy = layout::PlacementPolicy::kGreedy;
  ASSERT_TRUE(manager_->CreateFile(meta, greedy).ok());
  const FileRecord record = manager_->LookupFile("/g").value();
  for (layout::BrickId brick = 0; brick < 32; ++brick) {
    EXPECT_EQ(record.distribution.server_for(brick), dist.server_for(brick));
    EXPECT_EQ(record.distribution.slot_for(brick), dist.slot_for(brick));
  }
}

TEST_F(MetadataTest, DeleteFileCleansAllTables) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->CreateFile(MakeLinearMeta("/f"), {}).ok());
  ASSERT_TRUE(manager_->DeleteFile("/f").ok());
  EXPECT_FALSE(manager_->FileExists("/f").value());
  EXPECT_FALSE(manager_->LookupFile("/f").ok());
  EXPECT_TRUE(manager_->ListDirectory("/").value().files.empty());
  // Distribution rows are gone too.
  const auto rows = manager_->db()
                        .Execute("SELECT * FROM DPFS_FILE_DISTRIBUTION")
                        .value();
  EXPECT_TRUE(rows.empty());
}

TEST_F(MetadataTest, MetadataRenameUpdatesAllTables) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->MakeDirectory("/dst").ok());
  ASSERT_TRUE(manager_->CreateFile(MakeLinearMeta("/orig"), {}).ok());
  ASSERT_TRUE(manager_->RenameFile("/orig", "/dst/moved").ok());
  EXPECT_FALSE(manager_->FileExists("/orig").value());
  const client::FileRecord record =
      manager_->LookupFile("/dst/moved").value();
  EXPECT_EQ(record.meta.path, "/dst/moved");
  EXPECT_EQ(record.distribution.num_bricks(), 2u);
  EXPECT_TRUE(manager_->ListDirectory("/").value().files.empty());
  EXPECT_EQ(manager_->ListDirectory("/dst").value().files.size(), 1u);
  // Preconditions enforced.
  EXPECT_FALSE(manager_->RenameFile("/missing", "/x").ok());
  EXPECT_FALSE(manager_->RenameFile("/dst/moved", "/dst").ok());  // dir
}

TEST_F(MetadataTest, PathsAreNormalized) {
  ASSERT_TRUE(manager_->MakeDirectory("/home").ok());
  EXPECT_TRUE(manager_->DirectoryExists("//home/").value());
  EXPECT_TRUE(manager_->DirectoryExists("/home/./").value());
  EXPECT_TRUE(manager_->DirectoryExists("/x/../home").value());
}

TEST_F(MetadataTest, FileNamesWithQuotesAreSafe) {
  ASSERT_TRUE(manager_->RegisterServer(MakeServer("s0", 1)).ok());
  ASSERT_TRUE(manager_->CreateFile(MakeLinearMeta("/it's a file"), {}).ok());
  EXPECT_TRUE(manager_->FileExists("/it's a file").value());
  const FileRecord record = manager_->LookupFile("/it's a file").value();
  EXPECT_EQ(record.meta.path, "/it's a file");
}

TEST_F(MetadataTest, NamespaceChurnKeepsTheLogBounded) {
  // About 10k namespace mutations (creates, renames and removes, as a
  // dpfs-metad serves them) on a durable database: the log compacts itself
  // along the way, and a reopen lists exactly what a shadow copy holds.
  const TempDir temp = TempDir::Create("metadata-churn").value();
  const std::filesystem::path dir = temp.Sub("meta");
  const std::uint64_t compactions_before =
      metrics::GetHistogram("metadb.compact_us").GetSnapshot().count;
  constexpr int kDirs = 8;
  constexpr std::size_t kFilesPerDir = 64;
  std::map<std::string, std::set<std::string>> shadow;
  {
    std::shared_ptr<metadb::Database> db = metadb::Database::Open(dir).value();
    auto manager = MetadataManager::Attach(db).value();
    ASSERT_TRUE(manager->RegisterServer(MakeServer("s0", 1)).ok());
    ASSERT_TRUE(manager->RegisterServer(MakeServer("s1", 1)).ok());
    for (int d = 0; d < kDirs; ++d) {
      const std::string name = "/d" + std::to_string(d);
      ASSERT_TRUE(manager->MakeDirectory(name).ok());
      shadow[name];
    }
    std::mt19937 rng(25);
    std::uint64_t largest_log = 0;
    int next_file = 0;
    for (int op = 0; op < 10'000; ++op) {
      const std::string from_dir = "/d" + std::to_string(rng() % kDirs);
      std::set<std::string>& files = shadow[from_dir];
      if (files.size() < kFilesPerDir / 2 ||
          (files.size() < kFilesPerDir && rng() % 3 == 0)) {
        const std::string name = "file-" + std::to_string(next_file++);
        ASSERT_TRUE(
            manager->CreateFile(MakeLinearMeta(from_dir + "/" + name), {})
                .ok());
        files.insert(name);
      } else {
        auto victim = files.begin();
        std::advance(victim, static_cast<long>(rng() % files.size()));
        const std::string name = *victim;
        files.erase(victim);
        if (rng() % 2 == 0) {
          ASSERT_TRUE(manager->DeleteFile(from_dir + "/" + name).ok());
        } else {
          const std::string to_dir = "/d" + std::to_string(rng() % kDirs);
          const std::string to_name = "file-" + std::to_string(next_file++);
          ASSERT_TRUE(manager
                          ->RenameFile(from_dir + "/" + name,
                                       to_dir + "/" + to_name)
                          .ok());
          shadow[to_dir].insert(to_name);
        }
      }
      largest_log = std::max(largest_log, db->wal_size_bytes());
    }
    EXPECT_LT(largest_log, std::uint64_t{8} << 20);
    EXPECT_LT(std::filesystem::file_size(dir / "wal.log"),
              std::uint64_t{8} << 20);
    EXPECT_GE(metrics::GetHistogram("metadb.compact_us").GetSnapshot().count -
                  compactions_before,
              1u);
  }
  std::shared_ptr<metadb::Database> db = metadb::Database::Open(dir).value();
  auto manager = MetadataManager::Attach(db).value();
  for (const auto& [path, files] : shadow) {
    const MetadataService::Listing listing =
        manager->ListDirectory(path).value();
    EXPECT_TRUE(listing.directories.empty()) << path;
    EXPECT_EQ(std::set<std::string>(listing.files.begin(), listing.files.end()),
              files)
        << path;
    EXPECT_EQ(listing.files.size(), files.size()) << path;
  }
}

}  // namespace
}  // namespace dpfs::client
