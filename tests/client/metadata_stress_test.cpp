// Multi-threaded metadata stress against one MetadataManager. Threads
// mutate disjoint file names but share the directory tree and the read
// paths, so this exercises the manager's lock and the database's
// reader-shared SELECT path under real contention, and checks that a
// reader never sees half of a namespace transaction. Runs under the
// tsan/asan presets like the rest of the suite.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/metadata.h"
#include "metadb/database.h"

namespace dpfs::client {
namespace {

class MetadataStressTest : public ::testing::Test {
 protected:
  MetadataStressTest() {
    manager_ =
        MetadataManager::Attach(metadb::Database::OpenInMemory()).value();
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

  std::unique_ptr<MetadataManager> manager_;
};

TEST_F(MetadataStressTest, ConcurrentCreateLookupRenameDelete) {
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
            !manager_->RemoveDirectory(dir).ok()) {
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

TEST_F(MetadataStressTest, ReadersSeeWholeTransactions) {
  // One writer swings a file between /d/a and /d/b and creates and deletes
  // /d/c; two readers look up all three names and list /d meanwhile. Each
  // mutation is one transaction, so a reader sees it whole or not at all:
  // a lookup never finds a file's attribute row without its distribution
  // rows, and a listing always holds exactly one of a and b.
  constexpr int kRenames = 2000;
  constexpr int kReaders = 2;
  ASSERT_TRUE(manager_->MakeDirectory("/d").ok());
  ASSERT_TRUE(CreateTestFile("/d/a").ok());

  std::atomic<bool> done{false};
  std::atomic<int> writer_errors{0};
  std::atomic<int> bad_lookups{0};
  std::atomic<int> bad_listings{0};
  std::atomic<int> listings{0};
  std::thread writer([&] {
    for (int i = 0; i < kRenames; ++i) {
      const bool at_a = i % 2 == 0;
      if (!manager_->RenameFile(at_a ? "/d/a" : "/d/b", at_a ? "/d/b" : "/d/a")
               .ok()) {
        ++writer_errors;
      }
      if (i % 4 == 0) {
        if (!CreateTestFile("/d/c").ok()) ++writer_errors;
      } else if (i % 4 == 2) {
        if (!manager_->DeleteFile("/d/c").ok()) ++writer_errors;
      }
    }
    done = true;
  });
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done) {
        for (const char* path : {"/d/a", "/d/b", "/d/c"}) {
          const Result<FileRecord> record = manager_->LookupFile(path);
          if (!record.ok() &&
              record.status().code() != StatusCode::kNotFound) {
            ++bad_lookups;
          }
        }
        const Result<MetadataManager::Listing> listing =
            manager_->ListDirectory("/d");
        ++listings;
        if (!listing.ok()) {
          ++bad_listings;
          continue;
        }
        const std::vector<std::string>& files = listing.value().files;
        const auto count = [&files](const char* name) {
          return std::count(files.begin(), files.end(), name);
        };
        if (count("a") + count("b") != 1) ++bad_listings;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(bad_lookups.load(), 0);
  EXPECT_EQ(bad_listings.load(), 0) << "of " << listings.load() << " listings";
  EXPECT_GT(listings.load(), 0);
}

}  // namespace
}  // namespace dpfs::client
