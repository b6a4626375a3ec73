// Full-stack scenarios: many compute-node threads doing collective I/O over
// real TCP against a heterogeneous cluster, with metadata in the database —
// the whole paper pipeline minus the machine room.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "layout/hpf.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::FileSystem;
using core::ClusterOptions;
using core::LocalCluster;

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

/// Bytes on one server's disk: the sum of its subfile listing.
std::uint64_t StoredBytes(LocalCluster& cluster, std::size_t server) {
  const std::vector<net::SubfileInfo> listing =
      cluster.server(server).store().ListSubfiles().value();
  std::uint64_t total = 0;
  for (const net::SubfileInfo& info : listing) total += info.size;
  return total;
}

TEST(EndToEndTest, ParallelStarBlockWriteThenRead) {
  // 8 compute threads, 4 I/O nodes, (*,BLOCK) on a 128x128 multidim file —
  // the Fig 11 workload shape at test scale, with real data.
  ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  const auto cluster = LocalCluster::Start(std::move(cluster_options)).value();
  const std::shared_ptr<FileSystem> fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {128, 128};
  create.brick_shape = {16, 16};
  ASSERT_TRUE(fs->Create("/sim.dat", create).ok());

  const Bytes truth = PatternBytes(128 * 128, 42);
  constexpr std::uint32_t kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const Result<FileHandle> handle = fs->Open("/sim.dat");
      if (!handle.ok()) {
        failures.fetch_add(1);
        return;
      }
      FileHandle h = handle.value();
      h.client_id = c;
      // (*,BLOCK): client c owns columns [c*16, (c+1)*16).
      const layout::Region mine{{0, c * 16}, {128, 16}};
      Bytes chunk(mine.num_elements());
      for (std::uint64_t r = 0; r < 128; ++r) {
        for (std::uint64_t col = 0; col < 16; ++col) {
          chunk[r * 16 + col] = truth[r * 128 + c * 16 + col];
        }
      }
      if (!fs->WriteRegion(h, mine, chunk).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // One reader checks the whole array.
  FileHandle reader = fs->Open("/sim.dat").value();
  Bytes all(128 * 128);
  ASSERT_TRUE(fs->ReadRegion(reader, {{0, 0}, {128, 128}}, all).ok());
  EXPECT_EQ(all, truth);
}

TEST(EndToEndTest, CheckpointRestartWithArrayLevel) {
  // §3.3's motivating scenario: periodic checkpoint dump + restart read,
  // each processor's chunk stored as one array brick.
  ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  const auto cluster = LocalCluster::Start(std::move(cluster_options)).value();
  const std::shared_ptr<FileSystem> fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kArray;
  create.array_shape = {64, 64};
  create.element_size = 8;  // doubles
  create.pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  create.num_chunks = 4;
  ASSERT_TRUE(fs->Create("/ckpt0", create).ok());

  layout::ProcessGrid grid;
  grid.grid = {2, 2};
  const auto pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    writers.emplace_back([&, rank] {
      FileHandle h = fs->Open("/ckpt0").value();
      h.client_id = static_cast<std::uint32_t>(rank);
      const layout::Region chunk =
          layout::ChunkForProcess({64, 64}, pattern, grid, rank).value();
      const Bytes data = PatternBytes(chunk.num_elements() * 8, 900 + rank);
      client::IoReport report;
      if (!fs->WriteRegion(h, chunk, data, {}, &report).ok() ||
          report.requests != 1) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Restart: every rank reads its chunk back in one request.
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    FileHandle h = fs->Open("/ckpt0").value();
    h.client_id = static_cast<std::uint32_t>(rank);
    const layout::Region chunk =
        layout::ChunkForProcess({64, 64}, pattern, grid, rank).value();
    Bytes restored(chunk.num_elements() * 8);
    client::IoReport report;
    ASSERT_TRUE(fs->ReadRegion(h, chunk, restored, {}, &report).ok());
    EXPECT_EQ(report.requests, 1u);
    EXPECT_EQ(restored, PatternBytes(chunk.num_elements() * 8, 900 + rank));
  }
}

TEST(EndToEndTest, HeterogeneousGreedyPlacementStoresMoreOnFastServers) {
  ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  cluster_options.performance = {1, 1, 3, 3};  // half class1, half class3
  const auto cluster = LocalCluster::Start(std::move(cluster_options)).value();
  const std::shared_ptr<FileSystem> fs = cluster->fs();

  CreateOptions create;
  create.total_bytes = 256 * 1024;
  create.brick_bytes = 1024;  // 256 bricks
  create.placement = layout::PlacementPolicy::kGreedy;
  const FileHandle handle = fs->Create("/hetero.bin", create).value();

  const auto& dist = handle.record.distribution;
  const std::size_t fast = dist.bricks_on(0).size() + dist.bricks_on(1).size();
  const std::size_t slow = dist.bricks_on(2).size() + dist.bricks_on(3).size();
  EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(slow), 3.0,
              0.1);

  // Data still round-trips correctly through the skewed layout.
  FileHandle h = fs->Open("/hetero.bin").value();
  const Bytes data = PatternBytes(256 * 1024, 7);
  ASSERT_TRUE(fs->WriteBytes(h, 0, data).ok());
  Bytes read(256 * 1024);
  ASSERT_TRUE(fs->ReadBytes(h, 0, read).ok());
  EXPECT_EQ(read, data);

  // And the bytes on disk are actually skewed toward the fast servers.
  const std::uint64_t fast_bytes =
      StoredBytes(*cluster, 0) + StoredBytes(*cluster, 1);
  const std::uint64_t slow_bytes =
      StoredBytes(*cluster, 2) + StoredBytes(*cluster, 3);
  EXPECT_GT(fast_bytes, 2 * slow_bytes);
}

TEST(EndToEndTest, ManyFilesAcrossDirectories) {
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  const auto cluster = LocalCluster::Start(std::move(cluster_options)).value();
  const std::shared_ptr<FileSystem> fs = cluster->fs();

  ASSERT_TRUE(fs->metadata().MakeDirectory("/runs").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        fs->metadata().MakeDirectory("/runs/run" + std::to_string(i)).ok());
    CreateOptions create;
    create.total_bytes = 512;
    create.brick_bytes = 128;
    FileHandle handle =
        fs->Create("/runs/run" + std::to_string(i) + "/out.bin", create)
            .value();
    ASSERT_TRUE(
        fs->WriteBytes(handle, 0,
                       Bytes(512, static_cast<std::uint8_t>(i)))
            .ok());
  }
  const auto listing = fs->metadata().ListDirectory("/runs").value();
  EXPECT_EQ(listing.directories.size(), 10u);

  // Spot-check one file's contents.
  FileHandle h = fs->Open("/runs/run7/out.bin").value();
  Bytes read(512);
  ASSERT_TRUE(fs->ReadBytes(h, 0, read).ok());
  EXPECT_EQ(read, Bytes(512, 7));

  // Recursive removal tears everything down — metadata and the subfiles
  // on every server, named by the file's subfile id.
  const auto stored = [&](std::size_t s) {
    const std::vector<net::SubfileInfo> subfiles =
        cluster->server(s).store().ListSubfiles().value();
    return std::any_of(subfiles.begin(), subfiles.end(),
                       [&](const net::SubfileInfo& info) {
                         return info.name == h.meta().subfile;
                       });
  };
  std::size_t holders = 0;
  for (std::size_t s = 0; s < cluster->num_servers(); ++s) {
    if (stored(s)) ++holders;
  }
  EXPECT_GT(holders, 0u);
  ASSERT_TRUE(fs->RemoveDirectory("/runs", true).ok());
  EXPECT_FALSE(fs->Open("/runs/run7/out.bin").ok());
  for (std::size_t s = 0; s < cluster->num_servers(); ++s) {
    EXPECT_FALSE(stored(s)) << "server " << s;
  }
}

TEST(EndToEndTest, LinearArrayColumnAccessMatchesTruth) {
  // The Fig 5 pathology, executed with real bytes: a 64x64 array stored
  // linear; column reads are correct (if slow), which is the point.
  ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  const auto cluster = LocalCluster::Start(std::move(cluster_options)).value();
  const std::shared_ptr<FileSystem> fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kLinear;
  create.array_shape = {64, 64};
  create.brick_bytes = 256;  // 4 rows per brick
  FileHandle handle = fs->Create("/linear2d", create).value();

  const Bytes truth = PatternBytes(64 * 64, 11);
  ASSERT_TRUE(fs->WriteRegion(handle, {{0, 0}, {64, 64}}, truth).ok());

  client::IoReport report;
  Bytes column(64);
  ASSERT_TRUE(
      fs->ReadRegion(handle, {{0, 9}, {64, 1}}, column, {}, &report).ok());
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_EQ(column[r], truth[r * 64 + 9]);
  }
  // Whole-brick read amplification is visible in the report.
  EXPECT_GT(report.transfer_bytes, report.useful_bytes * 50);
}

}  // namespace
}  // namespace dpfs
