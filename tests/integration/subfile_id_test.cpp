// Subfiles are named by an immutable per-file id, fixed at create
// (FileMeta::subfile), not by the file's path. A rename is then one
// metadata transaction that touches no server, and a remove commits its
// metadata before deleting subfiles. These tests pin what that buys: bytes
// written through a handle opened before a rename reach the new path, a
// rename that fails at its commit keeps the file's bytes under the old
// name, a remove that cannot reach a server leaves a counted orphan for
// fsck instead of a live file with holes, and a database from before
// subfile ids attaches with every subfile keeping its path name.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/cluster.h"
#include "metadb/sql_ast.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::FileSystem;

constexpr std::uint64_t kFileBytes = 4096;
constexpr std::uint64_t kBrickBytes = 256;

/// Every request the process's I/O servers counted, over all opcodes: the
/// sum of the `io_server.requests.<op>` counters in the registry snapshot.
std::uint64_t IoServerRequests() {
  std::istringstream lines(metrics::Registry::Global().TextSnapshot());
  std::string kind;
  std::string name;
  std::string value;
  std::uint64_t total = 0;
  while (lines >> kind >> name) {
    std::getline(lines, value);
    if (kind == "counter" && name.rfind("io_server.requests.", 0) == 0) {
      total += std::stoull(value);
    }
  }
  return total;
}

CreateOptions SmallFile() {
  CreateOptions create;
  create.total_bytes = kFileBytes;
  create.brick_bytes = kBrickBytes;
  return create;
}

class SubfileIdTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  void StartCluster(bool durable_metadata = false) {
    core::ClusterOptions options;
    options.num_servers = 4;
    options.durable_metadata = durable_metadata;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  /// Opens `path`, reads the whole file, and returns its bytes.
  Bytes ReadAll(FileSystem& fs, const std::string& path) {
    FileHandle handle = fs.Open(path).value();
    Bytes read(kFileBytes);
    EXPECT_TRUE(fs.ReadBytes(handle, 0, read).ok());
    return read;
  }

  /// Create, write 0x11, rename, then write 0x22 through the handle opened
  /// before the rename: the new path must read 0x22, no I/O server may see
  /// a request during the rename, and fsck must find no orphan.
  void RenameThenWriteThroughOldHandle(const std::string& src,
                                       const std::string& dst) {
    FileHandle handle = fs_->Create(src, SmallFile()).value();
    ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(kFileBytes, 0x11)).ok());

    const std::uint64_t requests_before = IoServerRequests();
    ASSERT_TRUE(fs_->Rename(src, dst).ok());
    EXPECT_EQ(IoServerRequests(), requests_before);

    ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(kFileBytes, 0x22)).ok());
    EXPECT_FALSE(fs_->Open(src).ok());
    EXPECT_EQ(ReadAll(*fs_, dst), Bytes(kFileBytes, 0x22));
    const FileSystem::FsckReport report = fs_->Fsck().value();
    EXPECT_TRUE(report.clean()) << report.orphans.size() << " orphans";
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(SubfileIdTest, WriteThroughHandleOpenedBeforeRenameReachesNewPath) {
  StartCluster();
  RenameThenWriteThroughOldHandle("/src", "/dst");
}

TEST_F(SubfileIdTest, RenameFailingAtCommitKeepsTheBytes) {
  // The rename's one transaction fails at its commit (metadb.commit fires
  // only on a database with a WAL) and rolls back whole: the bytes are
  // still there under the old name, and the new name does not exist.
  StartCluster(/*durable_metadata=*/true);
  FileHandle handle = fs_->Create("/src", SmallFile()).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(kFileBytes, 0x33)).ok());

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kUnavailable;
  spec.message = "injected commit failure";
  spec.count = 1;
  failpoint::Arm("metadb.commit", spec);
  EXPECT_FALSE(fs_->Rename("/src", "/dst").ok());
  EXPECT_EQ(failpoint::HitCount("metadb.commit"), 1u);
  failpoint::DisarmAll();

  const std::shared_ptr<FileSystem> fresh =
      FileSystem::Connect(cluster_->db()).value();
  EXPECT_EQ(ReadAll(*fresh, "/src"), Bytes(kFileBytes, 0x33));
  EXPECT_EQ(fresh->Open("/dst").status().code(), StatusCode::kNotFound);
  const FileSystem::FsckReport report = fresh->Fsck().value();
  EXPECT_TRUE(report.clean()) << report.orphans.size() << " orphans";
}

TEST_F(SubfileIdTest, RemoveWithServerDownCommitsAndLeavesCountedOrphan) {
  StartCluster();
  FileHandle handle = fs_->Create("/f", SmallFile()).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(kFileBytes, 0x44)).ok());
  const std::string server2 = handle.record.servers[2].name;

  cluster_->server(2).Stop();
  fs_->connections().Clear();
  const metrics::Counter& orphaned =
      metrics::GetCounter("client.orphaned_subfiles");
  const std::uint64_t orphaned_before = orphaned.value();
  ASSERT_TRUE(fs_->Remove("/f").ok());
  EXPECT_EQ(fs_->Open("/f").status().code(), StatusCode::kNotFound);
  // One (server, rank) delete missed: server 2's rank-0 subfile.
  EXPECT_EQ(orphaned.value() - orphaned_before, 1u);

  ASSERT_TRUE(cluster_->RestartServer(2).ok());
  FileSystem::FsckReport report = fs_->Fsck().value();
  ASSERT_EQ(report.orphans.size(), 1u);
  EXPECT_EQ(report.orphans[0].server, server2);
  EXPECT_EQ(report.orphans[0].subfile, handle.meta().subfile);
  EXPECT_EQ(report.orphans[0].size, kFileBytes / 4);

  report = fs_->Fsck(/*repair=*/true).value();
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_TRUE(fs_->Fsck().value().clean());
}

TEST_F(SubfileIdTest, AttachUpgradesPathNamedDatabase) {
  // A database in the layout from before subfile ids: a 12-column
  // DPFS_FILE_ATTR and subfiles named by path. Attach widens the table with
  // each file's path as its id, so every file keeps reading its bytes and
  // no server is touched.
  StartCluster();
  metadb::Database& db = *cluster_->db();
  const FileHandle data = fs_->Create("/data", SmallFile()).value();
  const FileHandle other = fs_->Create("/other", SmallFile()).value();

  const metadb::ResultSet rows =
      db.Execute("SELECT * FROM DPFS_FILE_ATTR").value();
  ASSERT_TRUE(db.Execute("DROP TABLE DPFS_FILE_ATTR").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE DPFS_FILE_ATTR ("
                         "  filename TEXT PRIMARY KEY, owner TEXT,"
                         "  permission INT, size INT, filelevel TEXT,"
                         "  elemsize INT, dims INT, dimsize TEXT,"
                         "  brickbytes INT, stripe TEXT, pattern TEXT,"
                         "  grid TEXT)")
                  .ok());
  for (metadb::Row row : rows.rows) {
    row.pop_back();  // the subfile column
    metadb::InsertStmt insert;
    insert.table = "DPFS_FILE_ATTR";
    insert.rows.push_back(std::move(row));
    ASSERT_TRUE(db.ExecuteStatement(std::move(insert)).ok());
  }
  // Each brick's bytes go to its server's path-named subfile.
  const auto write_path_named = [&](const FileHandle& handle,
                                    const std::string& subfile,
                                    std::uint8_t fill) {
    for (layout::BrickId brick = 0; brick < handle.map.num_bricks(); ++brick) {
      std::vector<net::WriteFragment> fragment;
      const Bytes bytes(kBrickBytes, fill);
      fragment.emplace_back(
          handle.record.distribution.slot_for(brick) * kBrickBytes, bytes);
      Bytes scratch;
      ASSERT_TRUE(cluster_->server(handle.record.distribution.server_for(brick))
                      .store()
                      .WriteFragments(subfile, fragment, false, scratch)
                      .ok());
    }
  };
  write_path_named(data, "/data", 0x55);
  write_path_named(other, "/other", 0x66);

  const std::shared_ptr<FileSystem> upgraded =
      FileSystem::Connect(cluster_->db()).value();
  const Result<metadb::ResultSet> upgraded_rows =
      db.Execute("SELECT filename, subfile FROM DPFS_FILE_ATTR");
  ASSERT_TRUE(upgraded_rows.ok()) << upgraded_rows.status().ToString();
  ASSERT_EQ(upgraded_rows.value().size(), 2u);
  for (std::size_t row = 0; row < upgraded_rows.value().size(); ++row) {
    EXPECT_EQ(upgraded_rows.value().GetText(row, "subfile").value(),
              upgraded_rows.value().GetText(row, "filename").value());
  }
  EXPECT_EQ(ReadAll(*upgraded, "/data"), Bytes(kFileBytes, 0x55));
  EXPECT_EQ(ReadAll(*upgraded, "/other"), Bytes(kFileBytes, 0x66));
  const FileSystem::FsckReport report = upgraded->Fsck().value();
  EXPECT_TRUE(report.clean()) << report.orphans.size() << " orphans";
}

}  // namespace
}  // namespace dpfs
