// Two clients of one namespace: an embedded pair (two FileSystem::Connect on
// one Database) and a metad pair (two clients of one in-process dpfs-metad).
// The client keeps no record cache, so every Open and LookupFile is the
// database's answer at call time: once one client's remove, re-create or
// chmod has committed, the other client's next call sees it, whichever way
// the clients reach the metadata. Each namespace operation is one database
// transaction, so the two clients' concurrent operations are isolated from
// each other too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::FileSystem;

constexpr std::uint64_t kFileBytes = 4096;

CreateOptions FourBricks() {
  CreateOptions create;
  create.total_bytes = kFileBytes;
  create.brick_bytes = kFileBytes / 4;
  return create;
}

/// How many of `read`'s bytes are `fill`.
std::size_t CountOf(const Bytes& read, std::uint8_t fill) {
  std::size_t count = 0;
  for (const std::uint8_t byte : read) count += byte == fill;
  return count;
}

/// Parameter: true = both clients talk to an in-process dpfs-metad, false =
/// both attach the cluster's database.
class CrossClientTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 4;
    options.start_metadata_service = GetParam();
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    a_ = cluster_->fs();
    b_ = GetParam()
             ? FileSystem::ConnectRemote(cluster_->metad()->endpoint()).value()
             : FileSystem::Connect(cluster_->db()).value();
  }

  /// Reads all of `handle`'s file through `fs`.
  static Bytes ReadAll(FileSystem& fs, FileHandle& handle) {
    Bytes read(kFileBytes);
    EXPECT_TRUE(fs.ReadBytes(handle, 0, read).ok());
    return read;
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> a_;
  std::shared_ptr<FileSystem> b_;
};

TEST_P(CrossClientTest, OpenAfterRemoveAndRecreateReachesTheNewFile) {
  // B opens /f, A removes it and creates /f again. B's next Open must name
  // the new file's subfiles: B reads the new bytes, and the write B is
  // acknowledged is what A reads.
  FileHandle first = a_->Create("/f", FourBricks()).value();
  ASSERT_TRUE(a_->WriteBytes(first, 0, Bytes(kFileBytes, 0x11)).ok());
  FileHandle before = b_->Open("/f").value();
  ASSERT_EQ(CountOf(ReadAll(*b_, before), 0x11), kFileBytes);

  ASSERT_TRUE(a_->Remove("/f").ok());
  FileHandle second = a_->Create("/f", FourBricks()).value();
  ASSERT_TRUE(a_->WriteBytes(second, 0, Bytes(kFileBytes, 0x22)).ok());

  FileHandle after = b_->Open("/f").value();
  EXPECT_EQ(after.meta().subfile, second.meta().subfile);
  EXPECT_EQ(CountOf(ReadAll(*b_, after), 0x22), kFileBytes);
  ASSERT_TRUE(b_->WriteBytes(after, 0, Bytes(kFileBytes, 0x33)).ok());
  EXPECT_EQ(CountOf(ReadAll(*a_, second), 0x33), kFileBytes);
}

TEST_P(CrossClientTest, OpenAfterRemoveIsNotFound) {
  ASSERT_TRUE(a_->Create("/gone", FourBricks()).ok());
  ASSERT_TRUE(b_->Open("/gone").ok());
  ASSERT_TRUE(a_->Remove("/gone").ok());
  const Result<FileHandle> reopened = b_->Open("/gone");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST_P(CrossClientTest, ChmodIsSeenAtOnce) {
  ASSERT_TRUE(a_->Create("/perm", FourBricks()).ok());
  EXPECT_EQ(b_->metadata().LookupFile("/perm").value().meta.permission,
            0644u);
  ASSERT_TRUE(a_->metadata().SetPermission("/perm", 0600).ok());
  EXPECT_EQ(b_->metadata().LookupFile("/perm").value().meta.permission,
            0600u);
  // The metadata service normalizes the path, so an alias opens the file.
  EXPECT_EQ(b_->Open("//perm").value().meta().permission, 0600u);
}

TEST_P(CrossClientTest, CreateOverADirectoryIsRefused) {
  // A's directory holds the name, so B's create of it fails, and the root
  // lists `d` once, as a directory.
  ASSERT_TRUE(a_->metadata().MakeDirectory("/d").ok());
  EXPECT_EQ(b_->Create("/d", FourBricks()).status().code(),
            StatusCode::kAlreadyExists);
  const client::MetadataService::Listing root =
      b_->metadata().ListDirectory("/").value();
  EXPECT_EQ(root.directories, std::vector<std::string>{"d"});
  EXPECT_TRUE(root.files.empty());
}

TEST_P(CrossClientTest, RenameOntoItselfNeedsTheFile) {
  EXPECT_EQ(b_->Rename("/missing", "/missing").code(), StatusCode::kNotFound);
  // An existing file renamed onto itself stays where it was.
  ASSERT_TRUE(a_->Create("/same", FourBricks()).ok());
  EXPECT_TRUE(b_->Rename("/same", "//same").ok());
  EXPECT_TRUE(a_->Open("/same").ok());
  EXPECT_EQ(a_->metadata().ListDirectory("/").value().files,
            std::vector<std::string>{"same"});
}

TEST_P(CrossClientTest, ConcurrentRenameAndCreateKeepTheNamespace) {
  // A swings /d/a and /d/b 2000 times while B lists /d and creates one file
  // per listing. No operation fails, every listing names exactly one of a
  // and b, and afterwards /d lists every create B was acknowledged, each
  // opens, and the listing is exactly the files DPFS_FILE_ATTR holds.
  constexpr int kRenames = 2000;
  ASSERT_TRUE(a_->metadata().MakeDirectory("/d").ok());
  ASSERT_TRUE(a_->Create("/d/a", FourBricks()).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failed_renames{0};
  std::thread renamer([&] {
    for (int i = 0; i < kRenames; ++i) {
      const bool at_a = i % 2 == 0;
      if (!a_->Rename(at_a ? "/d/a" : "/d/b", at_a ? "/d/b" : "/d/a").ok()) {
        ++failed_renames;
      }
    }
    done = true;
  });
  int failed_listings = 0;
  int half_renames = 0;
  int listings = 0;
  int failed_creates = 0;
  std::vector<std::string> created;
  while (!done) {
    const Result<client::MetadataService::Listing> listing =
        b_->metadata().ListDirectory("/d");
    ++listings;
    if (!listing.ok()) {
      ++failed_listings;
      continue;
    }
    const std::vector<std::string>& files = listing.value().files;
    if (std::count(files.begin(), files.end(), "a") +
            std::count(files.begin(), files.end(), "b") !=
        1) {
      ++half_renames;
    }
    const std::string name = "c" + std::to_string(created.size() +
                                                  failed_creates);
    if (b_->Create("/d/" + name, FourBricks()).ok()) {
      created.push_back(name);
    } else {
      ++failed_creates;
    }
  }
  renamer.join();
  EXPECT_EQ(failed_renames.load(), 0);
  EXPECT_EQ(failed_listings, 0);
  EXPECT_EQ(failed_creates, 0);
  EXPECT_EQ(half_renames, 0) << "of " << listings << " listings";
  ASSERT_FALSE(created.empty());

  const std::vector<std::string> listed =
      a_->metadata().ListDirectory("/d").value().files;
  const std::set<std::string> listed_set(listed.begin(), listed.end());
  int unlisted = 0;
  int unopenable = 0;
  for (const std::string& name : created) {
    unlisted += listed_set.contains(name) ? 0 : 1;
    unopenable += a_->Open("/d/" + name).ok() ? 0 : 1;
  }
  EXPECT_EQ(unlisted, 0) << "of " << created.size() << " creates";
  EXPECT_EQ(unopenable, 0) << "of " << created.size() << " creates";

  const metadb::ResultSet rows =
      cluster_->db()
          ->Execute("SELECT filename FROM DPFS_FILE_ATTR WHERE filename LIKE "
                    "'/d/%'")
          .value();
  std::set<std::string> stored;
  for (std::size_t row = 0; row < rows.size(); ++row) {
    stored.insert(rows.GetText(row, "filename").value());
  }
  std::set<std::string> listed_paths;
  for (const std::string& name : listed) listed_paths.insert("/d/" + name);
  EXPECT_EQ(listed_paths, stored);
}

INSTANTIATE_TEST_SUITE_P(Pairs, CrossClientTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Metad" : "Embedded";
                         });

}  // namespace
}  // namespace dpfs
