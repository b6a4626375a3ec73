// Collective I/O (MPI-IO-style) over a live cluster.
#include "client/collective.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs::client {
namespace {

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

class CollectiveTest : public ::testing::Test {
 protected:
  CollectiveTest() {
    core::ClusterOptions options;
    options.num_servers = 4;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  std::unique_ptr<CollectiveFile> MakeFile(std::uint32_t ranks,
                                           std::uint64_t dim = 64) {
    CreateOptions create;
    create.level = layout::FileLevel::kMultidim;
    create.array_shape = {dim, dim};
    create.brick_shape = {dim / 4, dim / 4};
    return CollectiveFile::Create(fs_, "/coll.dpfs", create, ranks).value();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(CollectiveTest, ZeroRanksRejected) {
  CreateOptions create;
  create.total_bytes = 64;
  ASSERT_TRUE(fs_->Create("/f", create).ok());
  EXPECT_FALSE(CollectiveFile::Open(fs_, "/f", 0).ok());
}

TEST_F(CollectiveTest, ZeroRankCreateCreatesNothing) {
  CreateOptions create;
  create.total_bytes = 64;
  const auto file = CollectiveFile::Create(fs_, "/z", create, 0);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs_->metadata().FileExists("/z").value());
}

TEST_F(CollectiveTest, ViewValidation) {
  auto file = MakeFile(2);
  EXPECT_FALSE(file->SetView(5, {{0, 0}, {1, 1}}).ok());  // bad rank
  EXPECT_FALSE(file->SetView(0, {{0, 0}, {65, 64}}).ok());  // out of bounds
  EXPECT_TRUE(file->SetView(0, {{0, 0}, {64, 32}}).ok());
  EXPECT_EQ(file->view(0).value().extent, (layout::Shape{64, 32}));
  EXPECT_FALSE(file->view(1).has_value());
}

TEST_F(CollectiveTest, WriteAllThenReadAllRoundTrip) {
  constexpr std::uint32_t kRanks = 4;
  auto file = MakeFile(kRanks);
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  layout::ProcessGrid grid;
  grid.grid = {2, 2};
  ASSERT_TRUE(file->SetHpfViews(pattern, grid).ok());

  std::vector<Bytes> written(kRanks);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const layout::Region view = file->view(rank).value();
      written[rank] = PatternBytes(view.num_elements(), 500 + rank);
      if (!file->WriteAll(rank, written[rank]).ok()) failures.fetch_add(1);
      Bytes restored(written[rank].size());
      if (!file->ReadAll(rank, restored).ok() || restored != written[rank]) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Aggregate stats: 2 phases x 4 ranks x 16x16-byte chunks.
  const IoReport report = file->report();
  EXPECT_EQ(report.useful_bytes, 2u * 64 * 64);
  EXPECT_GT(report.requests, 0u);
}

TEST_F(CollectiveTest, MissingViewFailsAllRanks) {
  constexpr std::uint32_t kRanks = 2;
  auto file = MakeFile(kRanks);
  ASSERT_TRUE(file->SetView(0, {{0, 0}, {32, 64}}).ok());
  // Rank 1 never sets a view: rank 1 gets kInvalidArgument, rank 0 gets
  // kAborted (peer failure) — but both return, nobody deadlocks.
  Status status0;
  Status status1;
  Bytes data0(32 * 64, 1);
  Bytes data1(32 * 64, 2);
  std::thread t0([&] { status0 = file->WriteAll(0, data0); });
  std::thread t1([&] { status1 = file->WriteAll(1, data1); });
  t0.join();
  t1.join();
  EXPECT_EQ(status0.code(), StatusCode::kAborted);
  EXPECT_EQ(status1.code(), StatusCode::kInvalidArgument);

  // The collective recovers: set the view and the next phase succeeds.
  ASSERT_TRUE(file->SetView(1, {{32, 0}, {32, 64}}).ok());
  std::thread t2([&] { status0 = file->WriteAll(0, data0); });
  std::thread t3([&] { status1 = file->WriteAll(1, data1); });
  t2.join();
  t3.join();
  EXPECT_TRUE(status0.ok()) << status0.ToString();
  EXPECT_TRUE(status1.ok()) << status1.ToString();
}

TEST_F(CollectiveTest, ServerFailureAbortsAllRanksWithoutDeadlock) {
  constexpr std::uint32_t kRanks = 3;
  auto file = MakeFile(kRanks);
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(*,BLOCK)").value();
  layout::ProcessGrid grid;
  grid.grid = {kRanks};
  // 64 is not divisible by 3 — use a divisible view instead.
  ASSERT_TRUE(file->SetView(0, {{0, 0}, {64, 22}}).ok());
  ASSERT_TRUE(file->SetView(1, {{0, 22}, {64, 21}}).ok());
  ASSERT_TRUE(file->SetView(2, {{0, 43}, {64, 21}}).ok());

  // Kill every server: all ranks must return an error, none may hang.
  for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
    cluster_->server(s).Stop();
  }
  fs_->connections().Clear();

  std::vector<Status> statuses(kRanks);
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const layout::Region view = file->view(rank).value();
      const Bytes data(view.num_elements(), 1);
      statuses[rank] = file->WriteAll(rank, data);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    EXPECT_FALSE(statuses[rank].ok()) << "rank " << rank;
  }
}

TEST_F(CollectiveTest, RetriesCountEachRetryOnce) {
  // A busy rejection is one retry: IoReport::busy_retries is the busy
  // subset of retries, so collective.retries moves by retries alone.
  auto file = MakeFile(1);
  ASSERT_TRUE(file->SetView(0, {{0, 0}, {64, 64}}).ok());
  fs_->connections().Clear();  // every request dials a new session
  failpoint::Spec busy;
  busy.action = failpoint::Action::kBusy;
  busy.count = 2;
  failpoint::Arm("server.session", busy);
  const metrics::Counter& retries = metrics::GetCounter("collective.retries");
  const std::uint64_t retries_before = retries.value();

  ASSERT_TRUE(file->WriteAll(0, Bytes(64 * 64, 7)).ok());
  EXPECT_EQ(failpoint::HitCount("server.session"), 2u);
  const IoReport report = file->report();
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.busy_retries, 2u);
  EXPECT_EQ(retries.value() - retries_before, report.retries);
}

TEST_F(CollectiveTest, SequentialPhasesKeepConsistentData) {
  constexpr std::uint32_t kRanks = 4;
  constexpr int kPhases = 5;
  auto file = MakeFile(kRanks);
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(*,BLOCK)").value();
  layout::ProcessGrid grid;
  grid.grid = {kRanks};
  ASSERT_TRUE(file->SetHpfViews(pattern, grid).ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const layout::Region view = file->view(rank).value();
      for (int phase = 0; phase < kPhases; ++phase) {
        const Bytes data = PatternBytes(view.num_elements(),
                                        phase * 100 + rank);
        if (!file->WriteAll(rank, data).ok()) {
          failures.fetch_add(1);
          return;
        }
        Bytes check(view.num_elements());
        if (!file->ReadAll(rank, check).ok() || check != data) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(CollectiveTest, HpfViewsMatchChunkMath) {
  auto file = MakeFile(4);
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(BLOCK,*)").value();
  layout::ProcessGrid grid;
  grid.grid = {4};
  ASSERT_TRUE(file->SetHpfViews(pattern, grid).ok());
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    const layout::Region expected =
        layout::ChunkForProcess({64, 64}, pattern, grid, rank).value();
    EXPECT_EQ(file->view(rank).value(), expected);
  }
}

TEST_F(CollectiveTest, GridMismatchRejected) {
  auto file = MakeFile(4);
  const layout::HpfPattern pattern =
      layout::HpfPattern::Parse("(BLOCK,*)").value();
  layout::ProcessGrid grid;
  grid.grid = {2};  // 2 processes but 4 ranks
  EXPECT_FALSE(file->SetHpfViews(pattern, grid).ok());
}

TEST(CollectiveOpenTest, EveryRankGetsTheOneLookedUpRecord) {
  // Through dpfs-metad an 8-rank open is one meta_lookup_file, and every
  // rank addresses the file that lookup found: B opens the file, A removes
  // and re-creates it, and the ranks B then opens write the new file.
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kDim = 64;
  core::ClusterOptions options;
  options.num_servers = 4;
  options.start_metadata_service = true;
  const auto cluster = core::LocalCluster::Start(std::move(options)).value();
  const std::shared_ptr<FileSystem> a = cluster->fs();
  const std::shared_ptr<FileSystem> b =
      FileSystem::ConnectRemote(cluster->metad()->endpoint()).value();
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {kDim, kDim};
  create.brick_shape = {kDim / 4, kDim / 4};
  ASSERT_TRUE(a->Create("/coll.dpfs", create).ok());
  ASSERT_TRUE(b->Open("/coll.dpfs").ok());
  ASSERT_TRUE(a->Remove("/coll.dpfs").ok());
  FileHandle current = a->Create("/coll.dpfs", create).value();

  const metrics::Counter& lookups =
      metrics::GetCounter("metad.requests.meta_lookup_file");
  const std::uint64_t lookups_before = lookups.value();
  auto file = CollectiveFile::Open(b, "/coll.dpfs", kRanks).value();
  EXPECT_EQ(lookups.value() - lookups_before, 1u);
  EXPECT_EQ(file->meta().subfile, current.meta().subfile);

  // (*,BLOCK): rank r holds columns [8r, 8r + 8) and fills them with r + 1.
  layout::ProcessGrid grid;
  grid.grid = {kRanks};
  ASSERT_TRUE(
      file->SetHpfViews(layout::HpfPattern::Parse("(*,BLOCK)").value(), grid)
          .ok());
  std::vector<Status> statuses(kRanks);
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const Bytes data(file->view(rank).value().num_elements(),
                       static_cast<std::uint8_t>(rank + 1));
      statuses[rank] = file->WriteAll(rank, data);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    EXPECT_TRUE(statuses[rank].ok()) << "rank " << rank;
  }
  Bytes read(kDim * kDim);
  ASSERT_TRUE(a->ReadRegion(current, {{0, 0}, {kDim, kDim}}, read).ok());
  std::size_t misplaced = 0;
  for (std::uint64_t i = 0; i < kDim * kDim; ++i) {
    misplaced += read[i] != (i % kDim) / (kDim / kRanks) + 1;
  }
  EXPECT_EQ(misplaced, 0u);
}

TEST(CollectiveOpenTest, CreateHandsEveryRankTheCreatedRecord) {
  // Through dpfs-metad an 8-rank create is one meta_create_file and no
  // lookup: every rank gets the record the create returned.
  constexpr std::uint32_t kRanks = 8;
  core::ClusterOptions options;
  options.num_servers = 4;
  options.start_metadata_service = true;
  const auto cluster = core::LocalCluster::Start(std::move(options)).value();
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {64, 64};
  create.brick_shape = {16, 16};
  const metrics::Counter& creates =
      metrics::GetCounter("metad.requests.meta_create_file");
  const metrics::Counter& lookups =
      metrics::GetCounter("metad.requests.meta_lookup_file");
  const std::uint64_t creates_before = creates.value();
  const std::uint64_t lookups_before = lookups.value();
  const auto file =
      CollectiveFile::Create(cluster->fs(), "/coll.dpfs", create, kRanks)
          .value();
  EXPECT_EQ(creates.value() - creates_before, 1u);
  EXPECT_EQ(lookups.value() - lookups_before, 0u);
  EXPECT_EQ(file->num_ranks(), kRanks);
  EXPECT_EQ(file->meta().subfile,
            cluster->fs()->Open("/coll.dpfs").value().meta().subfile);
}

}  // namespace
}  // namespace dpfs::client
