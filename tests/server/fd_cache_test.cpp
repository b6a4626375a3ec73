#include "server/fd_cache.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <thread>

#include "common/metrics.h"
#include "common/temp_dir.h"

namespace dpfs::server {
namespace {

const metrics::Counter& Hits() { return metrics::GetCounter("fd_cache.hits"); }
const metrics::Counter& Misses() {
  return metrics::GetCounter("fd_cache.misses");
}

class FdCacheTest : public ::testing::Test {
 protected:
  FdCacheTest() : dir_(TempDir::Create("dpfs-fdcache").value()) {}

  std::string Path(const std::string& name) {
    return (dir_.path() / name).string();
  }

  TempDir dir_;
};

TEST_F(FdCacheTest, CreateOpensAndCaches) {
  const std::uint64_t hits_before = Hits().value();
  const std::uint64_t misses_before = Misses().value();
  FdCache cache(8);
  const SharedFdPtr fd1 = cache.Acquire(Path("a"), true).value();
  const SharedFdPtr fd2 = cache.Acquire(Path("a"), true).value();
  EXPECT_EQ(fd1->get(), fd2->get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(Hits().value() - hits_before, 1u);
  EXPECT_EQ(Misses().value() - misses_before, 1u);
}

TEST_F(FdCacheTest, MissingFileWithoutCreateIsNotFound) {
  FdCache cache(8);
  const Result<SharedFdPtr> fd = cache.Acquire(Path("missing"), false);
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kNotFound);
}

TEST_F(FdCacheTest, CreateMakesParentDirectories) {
  FdCache cache(8);
  EXPECT_TRUE(cache.Acquire(Path("deep/nested/file"), true).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_.path() / "deep/nested/file"));
}

TEST_F(FdCacheTest, EvictsLeastRecentlyUsed) {
  FdCache cache(2);
  (void)cache.Acquire(Path("a"), true).value();
  (void)cache.Acquire(Path("b"), true).value();
  (void)cache.Acquire(Path("a"), true).value();  // touch a
  (void)cache.Acquire(Path("c"), true).value();  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  const std::uint64_t misses_before = Misses().value();
  (void)cache.Acquire(Path("a"), true).value();  // still cached
  EXPECT_EQ(Misses().value(), misses_before);
  (void)cache.Acquire(Path("b"), true).value();  // was evicted
  EXPECT_EQ(Misses().value(), misses_before + 1);
}

TEST_F(FdCacheTest, EvictedFdStaysUsableWhileReferenced) {
  FdCache cache(1);
  const SharedFdPtr held = cache.Acquire(Path("held"), true).value();
  (void)cache.Acquire(Path("other"), true).value();  // evicts "held"
  // The descriptor we still hold must remain valid.
  EXPECT_EQ(::pwrite(held->get(), "x", 1, 0), 1);
}

TEST_F(FdCacheTest, InvalidateDropsEntry) {
  FdCache cache(8);
  (void)cache.Acquire(Path("a"), true).value();
  cache.Invalidate(Path("a"));
  EXPECT_EQ(cache.size(), 0u);
  cache.Invalidate(Path("a"));  // idempotent
}

TEST_F(FdCacheTest, ClearDropsEverything) {
  FdCache cache(8);
  (void)cache.Acquire(Path("a"), true).value();
  (void)cache.Acquire(Path("b"), true).value();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(FdCacheTest, ConcurrentAcquireIsSafe) {
  FdCache cache(4);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string name = "f" + std::to_string((t + i) % 6);
        const Result<SharedFdPtr> fd = cache.Acquire(Path(name), true);
        if (!fd.ok() || fd.value()->get() < 0) {
          failures.fetch_add(1);
          return;
        }
        char byte = static_cast<char>(i);
        if (::pwrite(fd.value()->get(), &byte, 1, t) != 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 4u);
}

TEST_F(FdCacheTest, ReadOnlyAcquireSeesExistingContent) {
  std::ofstream(Path("data")) << "hello";
  FdCache cache(8);
  const SharedFdPtr fd = cache.Acquire(Path("data"), false).value();
  char buf[5];
  ASSERT_EQ(::pread(fd->get(), buf, 5, 0), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
}

}  // namespace
}  // namespace dpfs::server
