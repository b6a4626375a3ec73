// Fsck: metadata vs server-side reality, with orphan repair.
#include <algorithm>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::FileSystem;

class FsckTest : public ::testing::Test {
 protected:
  FsckTest() {
    core::ClusterOptions options;
    options.num_servers = 3;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  FileHandle MakeFile(const std::string& path, std::uint64_t bytes) {
    CreateOptions create;
    create.total_bytes = bytes;
    create.brick_bytes = 256;
    FileHandle handle = fs_->Create(path, create).value();
    EXPECT_TRUE(fs_->WriteBytes(handle, 0, Bytes(bytes, 0x11)).ok());
    return handle;
  }

  /// Whether server `s` stores a subfile named `name`.
  bool Stores(std::size_t s, const std::string& name) {
    const std::vector<net::SubfileInfo> listing =
        cluster_->server(s).store().ListSubfiles().value();
    return std::any_of(
        listing.begin(), listing.end(),
        [&](const net::SubfileInfo& info) { return info.name == name; });
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(FsckTest, CleanSystemReportsClean) {
  MakeFile("/a", 1024);
  MakeFile("/b", 2048);
  const FileSystem::FsckReport report = fs_->Fsck().value();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_checked, 2u);
  EXPECT_EQ(report.servers_checked, 3u);
  EXPECT_EQ(report.repaired, 0u);
}

TEST_F(FsckTest, NeverWrittenFileIsNotAnIssue) {
  CreateOptions create;
  create.total_bytes = 1024;
  ASSERT_TRUE(fs_->Create("/sparse", create).ok());  // no writes
  EXPECT_TRUE(fs_->Fsck().value().clean());
}

TEST_F(FsckTest, DetectsAndRepairsOrphans) {
  MakeFile("/kept", 1024);
  // Manufacture orphans: plant subfiles directly on two servers.
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(100, 0xAB);
  writes.emplace_back(0, bytes);
  Bytes scratch;
  ASSERT_TRUE(cluster_->server(0)
                  .store()
                  .WriteFragments("/ghost", writes, false, scratch)
                  .ok());
  ASSERT_TRUE(cluster_->server(2)
                  .store()
                  .WriteFragments("/dir/zombie", writes, false, scratch)
                  .ok());

  FileSystem::FsckReport report = fs_->Fsck().value();
  ASSERT_EQ(report.orphans.size(), 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.repaired, 0u);  // detection only

  // Repair pass removes them.
  report = fs_->Fsck(/*repair=*/true).value();
  EXPECT_EQ(report.orphans.size(), 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_FALSE(Stores(0, "/ghost"));
  EXPECT_FALSE(Stores(2, "/dir/zombie"));

  // And the system is clean afterwards, with the real file untouched.
  EXPECT_TRUE(fs_->Fsck().value().clean());
  FileHandle kept = fs_->Open("/kept").value();
  Bytes read(1024);
  ASSERT_TRUE(fs_->ReadBytes(kept, 0, read).ok());
  EXPECT_EQ(read, Bytes(1024, 0x11));
}

TEST_F(FsckTest, ReportsUnreachableServers) {
  MakeFile("/x", 512);
  cluster_->server(1).Stop();
  fs_->connections().Clear();
  const FileSystem::FsckReport report = fs_->Fsck().value();
  ASSERT_EQ(report.unreachable_servers.size(), 1u);
  EXPECT_EQ(report.unreachable_servers[0], "ionode001.dpfs.local");
  EXPECT_EQ(report.servers_checked, 2u);
}

TEST_F(FsckTest, InterruptedDeleteLeavesOrphanThatFsckFinds) {
  // Simulate the real failure mode: metadata rows removed but one server's
  // subfile delete was lost (here: recreate it behind DPFS's back).
  const FileHandle handle = MakeFile("/doomed", 1024);
  ASSERT_TRUE(fs_->Remove("/doomed").ok());
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(64, 1);
  writes.emplace_back(0, bytes);
  Bytes scratch;
  ASSERT_TRUE(cluster_->server(1)
                  .store()
                  .WriteFragments(handle.meta().subfile, writes, false, scratch)
                  .ok());

  const FileSystem::FsckReport report = fs_->Fsck(true).value();
  ASSERT_EQ(report.orphans.size(), 1u);
  EXPECT_EQ(report.orphans[0].subfile, handle.meta().subfile);
  EXPECT_EQ(report.repaired, 1u);
}

TEST_F(FsckTest, RepairDuringAWriteKeepsTheFile) {
  // A file created and written while fsck lists the servers is no orphan:
  // a subfile exists only after its file's create committed, and fsck reads
  // which subfiles the metadata names only after it listed every server.
  // The first reply fsck waits for is held until the file is written.
  failpoint::Spec hold;
  hold.action = failpoint::Action::kDelay;
  hold.arg = 300;
  hold.count = 1;
  failpoint::Arm("server.before_reply", hold);
  Result<FileSystem::FsckReport> report = InternalError("fsck did not run");
  std::thread fsck([&] { report = fs_->Fsck(/*repair=*/true); });
  while (failpoint::HitCount("server.before_reply") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  constexpr std::uint64_t kBytes = 3 * 1024;  // 12 bricks on 3 servers
  FileHandle live = MakeFile("/live", kBytes);
  fsck.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().orphans.empty())
      << report.value().orphans.size() << " orphans";
  EXPECT_EQ(report.value().repaired, 0u);
  Bytes read(kBytes);
  ASSERT_TRUE(fs_->ReadBytes(live, 0, read).ok());
  const auto kept = std::count(read.begin(), read.end(), std::uint8_t{0x11});
  EXPECT_EQ(static_cast<std::uint64_t>(kept), kBytes);
}

}  // namespace
}  // namespace dpfs
