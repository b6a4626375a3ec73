// Multi-threaded metadata stress: concurrent Create/Lookup/Rename/Delete
// against one MetadataManager, parameterized over 1 shard (the paper's
// single database) and 4 shards (the `metadb_shards` extension). Threads
// mutate disjoint file names but share the directory tree and the read
// paths, so this exercises the per-shard transaction mutexes, the
// reader-shared SELECT path, and the cross-shard link protocol under real
// contention. Runs under the tsan/asan presets like the rest of the suite.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/metadata.h"
#include "metadb/sharded_database.h"

namespace dpfs::client {
namespace {

class MetadataStressTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  MetadataStressTest() {
    std::unique_ptr<metadb::ShardedDatabase> db =
        metadb::ShardedDatabase::OpenInMemory(GetParam()).value();
    db_ = std::move(db);
    manager_ = MetadataManager::Attach(db_).value();
    ServerInfo server;
    server.name = "s0";
    server.endpoint = {"127.0.0.1", 9000};
    server.capacity_bytes = 500'000'000;
    server.performance = 1;
    EXPECT_TRUE(manager_->RegisterServer(server).ok());
    server.name = "s1";
    EXPECT_TRUE(manager_->RegisterServer(server).ok());
  }

  FileMeta MakeLinearMeta(const std::string& path) {
    FileMeta meta;
    meta.path = path;
    meta.subfile = NewSubfileId().value();
    meta.owner = "xhshen";
    meta.permission = 0744;
    meta.level = layout::FileLevel::kLinear;
    meta.size_bytes = 128;
    meta.brick_bytes = 64;
    return meta;
  }

  Status CreateTestFile(const std::string& path) {
    const auto dist = layout::BrickDistribution::RoundRobin(2, 2).value();
    return manager_->CreateFile(MakeLinearMeta(path), {"s0", "s1"}, dist);
  }

  std::shared_ptr<metadb::ShardedDatabase> db_;
  std::unique_ptr<MetadataManager> manager_;
};

TEST_P(MetadataStressTest, ConcurrentCreateLookupRenameDelete) {
  constexpr int kThreads = 4;
  constexpr int kFilesPerThread = 16;
  ASSERT_TRUE(manager_->MakeDirectory("/stress").ok());

  std::atomic<int> errors{0};
  std::vector<std::vector<std::string>> kept(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFilesPerThread; ++i) {
        const std::string base =
            "/stress/t" + std::to_string(t) + "_" + std::to_string(i);
        if (!CreateTestFile(base).ok()) {
          ++errors;
          continue;
        }
        if (!manager_->LookupFile(base).ok()) ++errors;

        // Shared-read churn against other threads' namespace: any boolean
        // answer is fine, an error is not.
        const std::string peer = "/stress/t" +
                                 std::to_string((t + 1) % kThreads) + "_" +
                                 std::to_string(i);
        if (!manager_->FileExists(peer).ok()) ++errors;
        if (!manager_->ListDirectory("/stress").ok()) ++errors;

        std::string path = base;
        if (i % 3 == 0) {
          const std::string renamed = base + ".r";
          if (manager_->RenameFile(base, renamed).ok()) {
            path = renamed;
          } else {
            ++errors;
          }
        }
        if (i % 2 == 0) {
          if (!manager_->DeleteFile(path).ok()) ++errors;
        } else {
          kept[t].push_back(path.substr(std::string("/stress/").size()));
        }

        // Per-thread directory churn alongside the file ops.
        const std::string dir = base + ".d";
        if (!manager_->MakeDirectory(dir).ok() ||
            !manager_->RemoveDirectory(dir, false).ok()) {
          ++errors;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);

  // Final state: exactly the files each thread kept, all resolvable.
  std::vector<std::string> expected;
  for (const std::vector<std::string>& names : kept) {
    expected.insert(expected.end(), names.begin(), names.end());
  }
  std::sort(expected.begin(), expected.end());

  MetadataManager::Listing listing = manager_->ListDirectory("/stress").value();
  std::sort(listing.files.begin(), listing.files.end());
  EXPECT_EQ(listing.files, expected);
  EXPECT_TRUE(listing.directories.empty());
  for (const std::string& name : listing.files) {
    EXPECT_TRUE(manager_->LookupFile("/stress/" + name).ok()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MetadataStressTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "Shards" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace dpfs::client
