#include "client/brick_cache.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/cluster.h"

namespace dpfs::client {
namespace {

// --- Unit tests on the cache itself ----------------------------------------

TEST(BrickCacheTest, PutGetRoundTrip) {
  const metrics::Counter& hits = metrics::GetCounter("brick_cache.hits");
  const metrics::Counter& misses = metrics::GetCounter("brick_cache.misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  BrickCache cache(1024);
  cache.Put("/f", 3, Bytes{1, 2, 3});
  const std::optional<Bytes> hit = cache.Get("/f", 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{1, 2, 3}));
  EXPECT_FALSE(cache.Get("/f", 4).has_value());
  EXPECT_FALSE(cache.Get("/g", 3).has_value());
  EXPECT_EQ(hits.value() - hits_before, 1u);
  EXPECT_EQ(misses.value() - misses_before, 2u);
}

TEST(BrickCacheTest, EvictsLruByByteBudget) {
  BrickCache cache(10);
  cache.Put("/f", 0, Bytes(4, 0));
  cache.Put("/f", 1, Bytes(4, 1));
  ASSERT_TRUE(cache.Get("/f", 0).has_value());  // touch 0
  cache.Put("/f", 2, Bytes(4, 2));              // evicts 1 (LRU)
  EXPECT_TRUE(cache.Get("/f", 0).has_value());
  EXPECT_FALSE(cache.Get("/f", 1).has_value());
  EXPECT_TRUE(cache.Get("/f", 2).has_value());
  EXPECT_LE(cache.size_bytes(), 10u);
}

TEST(BrickCacheTest, OversizeImageNotCached) {
  BrickCache cache(8);
  cache.Put("/f", 0, Bytes(9, 0));
  EXPECT_FALSE(cache.Get("/f", 0).has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(BrickCacheTest, ReplaceUpdatesBytes) {
  BrickCache cache(100);
  cache.Put("/f", 0, Bytes(10, 0));
  cache.Put("/f", 0, Bytes(20, 1));
  EXPECT_EQ(cache.size_bytes(), 20u);
  EXPECT_EQ(cache.Get("/f", 0)->size(), 20u);
}

TEST(BrickCacheTest, InvalidateFileDropsOnlyThatFile) {
  BrickCache cache(1024);
  cache.Put("/a", 0, Bytes(4, 0));
  cache.Put("/a", 1, Bytes(4, 0));
  cache.Put("/b", 0, Bytes(4, 0));
  cache.InvalidateFile("/a");
  EXPECT_FALSE(cache.Get("/a", 0).has_value());
  EXPECT_FALSE(cache.Get("/a", 1).has_value());
  EXPECT_TRUE(cache.Get("/b", 0).has_value());
  EXPECT_EQ(cache.size_bytes(), 4u);
}

TEST(BrickCacheTest, InvalidateSingleBrickAndClear) {
  BrickCache cache(1024);
  cache.Put("/a", 0, Bytes(4, 0));
  cache.Put("/a", 1, Bytes(4, 0));
  cache.Invalidate("/a", 0);
  EXPECT_FALSE(cache.Get("/a", 0).has_value());
  EXPECT_TRUE(cache.Get("/a", 1).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size_bytes(), 0u);
}

// --- Integration with the FileSystem read/write paths -----------------------

class CachedFileSystemTest : public ::testing::Test {
 protected:
  CachedFileSystemTest() {
    core::ClusterOptions options;
    options.num_servers = 2;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
    fs_->EnableBrickCache(1 << 20);
  }

  /// Bytes both servers served: they share the process's registry.
  static std::uint64_t ServerBytesRead() {
    return metrics::GetCounter("subfile_store.bytes_read").value();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(CachedFileSystemTest, RepeatReadsSkipTheNetwork) {
  CreateOptions create;
  create.total_bytes = 4096;
  create.brick_bytes = 512;
  FileHandle handle = fs_->Create("/hot.bin", create).value();
  Bytes data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13);
  }
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());

  Bytes first(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, first).ok());
  EXPECT_EQ(first, data);
  const std::uint64_t wire_after_first = ServerBytesRead();
  const metrics::Counter& hits = metrics::GetCounter("brick_cache.hits");
  const std::uint64_t hits_before = hits.value();

  Bytes second(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, second).ok());
  EXPECT_EQ(second, data);
  EXPECT_EQ(ServerBytesRead(), wire_after_first);  // zero wire bytes
  EXPECT_GE(hits.value() - hits_before, 8u);  // one per brick
}

TEST_F(CachedFileSystemTest, WritesInvalidateAffectedBricksOnly) {
  CreateOptions create;
  create.total_bytes = 2048;
  create.brick_bytes = 512;  // 4 bricks
  FileHandle handle = fs_->Create("/inv.bin", create).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(2048, 1)).ok());
  Bytes warm(2048);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, warm).ok());  // warms 4 bricks

  // Overwrite brick 1 only.
  ASSERT_TRUE(fs_->WriteBytes(handle, 512, Bytes(512, 9)).ok());
  Bytes after(2048);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after).ok());
  EXPECT_EQ(after[0], 1);
  EXPECT_EQ(after[600], 9);   // new data visible — no stale cache
  EXPECT_EQ(after[1500], 1);
}

TEST_F(CachedFileSystemTest, RemoveDropsCachedBricks) {
  CreateOptions create;
  create.total_bytes = 1024;
  create.brick_bytes = 512;
  FileHandle handle = fs_->Create("/bye.bin", create).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(1024, 7)).ok());
  Bytes warm(1024);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, warm).ok());
  ASSERT_GT(fs_->brick_cache()->size_bytes(), 0u);
  ASSERT_TRUE(fs_->Remove("/bye.bin").ok());
  EXPECT_EQ(fs_->brick_cache()->size_bytes(), 0u);
}

TEST_F(CachedFileSystemTest, RenameInvalidatesCache) {
  CreateOptions create;
  create.total_bytes = 1024;
  create.brick_bytes = 512;
  FileHandle handle = fs_->Create("/from.bin", create).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(1024, 3)).ok());
  Bytes warm(1024);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, warm).ok());
  ASSERT_TRUE(fs_->Rename("/from.bin", "/to.bin").ok());
  // Reading under the new name returns the right bytes (no stale images
  // keyed by the old name can leak).
  FileHandle moved = fs_->Open("/to.bin").value();
  Bytes read(1024);
  ASSERT_TRUE(fs_->ReadBytes(moved, 0, read).ok());
  EXPECT_EQ(read, Bytes(1024, 3));
}

TEST_F(CachedFileSystemTest, MultidimRegionReadsHitCache) {
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {32, 32};
  create.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/grid.dpfs", create).value();
  Bytes data(32 * 32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, data).ok());

  Bytes column(32);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 5}, {32, 1}}, column).ok());
  const std::uint64_t wire = ServerBytesRead();
  // An overlapping column comes from the same brick column: all hits.
  Bytes column2(32);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 6}, {32, 1}}, column2).ok());
  EXPECT_EQ(ServerBytesRead(), wire);
  for (std::uint64_t r = 0; r < 32; ++r) {
    EXPECT_EQ(column2[r], data[r * 32 + 6]);
  }
}

}  // namespace
}  // namespace dpfs::client
