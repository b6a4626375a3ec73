// Cross-validation of the performance model against reality: for effects
// large enough to be timing-robust on loopback TCP, the real execution and
// the simulator must agree on who wins. This is the test that keeps the
// figure-reproduction honest.
#include <gtest/gtest.h>

#include <algorithm>

#include "client/datatype.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/cluster.h"
#include "layout/plan.h"
#include "simnet/replay.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::IoOptions;

TEST(ModelValidationTest, LinearColumnPathologyAgreesWithSimulator) {
  // Column access through a linear file vs a multidim file: the transfer
  // amplification (here 64x) dominates any timing noise.
  constexpr std::uint64_t kDim = 512;

  // --- Real execution ------------------------------------------------------
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 4;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  CreateOptions linear_create;
  linear_create.level = layout::FileLevel::kLinear;
  linear_create.array_shape = {kDim, kDim};
  linear_create.brick_bytes = kDim;  // one row per brick
  FileHandle linear = fs->Create("/lin", linear_create).value();

  CreateOptions md_create;
  md_create.level = layout::FileLevel::kMultidim;
  md_create.array_shape = {kDim, kDim};
  md_create.brick_shape = {64, 64};
  FileHandle multidim = fs->Create("/md", md_create).value();

  const Bytes data(kDim * kDim, 0x3C);
  ASSERT_TRUE(fs->WriteRegion(linear, {{0, 0}, {kDim, kDim}}, data).ok());
  ASSERT_TRUE(fs->WriteRegion(multidim, {{0, 0}, {kDim, kDim}}, data).ok());

  const layout::Region columns{{0, 100}, {kDim, 8}};
  Bytes out(columns.num_elements());

  // Warm both paths once, then time several repetitions.
  ASSERT_TRUE(fs->ReadRegion(linear, columns, out).ok());
  ASSERT_TRUE(fs->ReadRegion(multidim, columns, out).ok());
  constexpr int kReps = 5;
  WallTimer linear_timer;
  for (int i = 0; i < kReps; ++i) {
    ASSERT_TRUE(fs->ReadRegion(linear, columns, out).ok());
  }
  const double real_linear = linear_timer.ElapsedSeconds();
  WallTimer md_timer;
  for (int i = 0; i < kReps; ++i) {
    ASSERT_TRUE(fs->ReadRegion(multidim, columns, out).ok());
  }
  const double real_multidim = md_timer.ElapsedSeconds();

  // --- Simulated execution of the same plans ------------------------------
  const auto simulate = [&](const FileHandle& handle) {
    layout::PlanOptions options;
    options.combine = true;
    layout::IoPlan plan;
    plan.clients.push_back(
        layout::PlanRegionAccess(handle.map, handle.record.distribution, 0,
                                 columns, options)
            .value());
    return simnet::Replay(plan, std::vector<simnet::StorageClassModel>(
                                    4, simnet::Class1()))
        .value()
        .makespan_s;
  };
  const double sim_linear = simulate(linear);
  const double sim_multidim = simulate(multidim);

  // Both worlds must agree: multidim wins, by a wide margin.
  EXPECT_GT(real_linear, real_multidim * 2)
      << "real: " << real_linear << "s vs " << real_multidim << "s";
  EXPECT_GT(sim_linear, sim_multidim * 2)
      << "sim: " << sim_linear << "s vs " << sim_multidim << "s";
}

TEST(ModelValidationTest, RequestCountEffectAgreesWithSimulator) {
  // Sieve vs whole-brick on a sparse column read: wire bytes shrink ~64x.
  // Compare *transferred bytes* (deterministic) in both worlds rather than
  // wall time, which loopback makes noisy.
  constexpr std::uint64_t kDim = 256;
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kLinear;
  create.array_shape = {kDim, kDim};
  create.brick_bytes = kDim;
  FileHandle handle = fs->Create("/f", create).value();
  const Bytes data(kDim * kDim, 1);
  ASSERT_TRUE(fs->WriteRegion(handle, {{0, 0}, {kDim, kDim}}, data).ok());

  const layout::Region column{{0, 9}, {kDim, 4}};
  // Both servers' bytes: they share the process's registry.
  const metrics::Counter& bytes_read =
      metrics::GetCounter("subfile_store.bytes_read");
  const auto measure_real = [&](bool whole) {
    const std::uint64_t before = bytes_read.value();
    IoOptions io;
    io.whole_brick_reads = whole;
    Bytes out(column.num_elements());
    EXPECT_TRUE(fs->ReadRegion(handle, column, out, io).ok());
    return bytes_read.value() - before;
  };
  const std::uint64_t real_whole = measure_real(true);
  const std::uint64_t real_sieve = measure_real(false);

  const auto measure_sim = [&](bool whole) {
    layout::PlanOptions options;
    options.combine = true;
    options.whole_brick_reads = whole;
    return layout::PlanRegionAccess(handle.map, handle.record.distribution,
                                    0, column, options)
        .value()
        .transfer_bytes();
  };
  const std::uint64_t sim_whole = measure_sim(true);
  const std::uint64_t sim_sieve = measure_sim(false);

  // The simulator's transfer accounting must match the real wire exactly.
  EXPECT_EQ(real_whole, sim_whole);
  EXPECT_EQ(real_sieve, sim_sieve);
  EXPECT_GT(real_whole, real_sieve * 32);
}

TEST(ModelValidationTest, ListIoPlanAgreesWithSimulator) {
  // List I/O (docs/NONCONTIGUOUS_IO.md): the executor must move exactly the
  // bytes and wire extents the plan says, which is what the simulator
  // charges (simnet RequestFragments uses list_extents). Pin both: wire
  // bytes via subfile_store.bytes_read, extent count via
  // io_server.list_extents.
  constexpr std::uint64_t kDim = 256;
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kLinear;
  create.array_shape = {kDim, kDim};
  create.brick_bytes = kDim;  // one row per brick
  FileHandle handle = fs->Create("/f", create).value();
  Bytes data(kDim * kDim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131);
  }
  ASSERT_TRUE(fs->WriteRegion(handle, {{0, 0}, {kDim, kDim}}, data).ok());

  // One 4-byte column of the row-major matrix: kDim blocks strided kDim.
  const client::Datatype column =
      client::Datatype::Vector(kDim, 4, kDim, client::Datatype::Bytes(1))
          .value();

  metrics::Counter& list_extents_metric =
      metrics::GetCounter("io_server.list_extents");
  const metrics::Counter& bytes_read =
      metrics::GetCounter("subfile_store.bytes_read");
  const std::uint64_t bytes_before = bytes_read.value();
  const std::uint64_t extents_before = list_extents_metric.value();

  IoOptions io;
  io.list_io = true;
  Bytes out(column.size());
  client::IoReport report;
  ASSERT_TRUE(fs->ReadType(handle, 9, column, out, io, &report).ok());

  const std::uint64_t real_bytes = bytes_read.value() - bytes_before;
  const std::uint64_t real_extents =
      list_extents_metric.value() - extents_before;

  // The same plan the executor ran, built directly in layout.
  std::vector<layout::FileExtent> extents;
  for (const client::ByteExtent& extent : column.extents()) {
    extents.push_back({9 + extent.offset, extent.length});
  }
  const layout::ClientPlan plan =
      layout::PlanListAccess(handle.map, handle.record.distribution, 0,
                             extents, layout::PlanOptions{})
          .value();
  std::uint64_t plan_extents = 0;
  for (const layout::ServerRequest& request : plan.requests) {
    plan_extents += request.list_extents.size();
  }

  EXPECT_EQ(real_bytes, plan.transfer_bytes());
  EXPECT_EQ(real_extents, plan_extents);
  EXPECT_EQ(report.transfer_bytes, plan.transfer_bytes());
  EXPECT_EQ(report.requests, plan.num_requests());

  // Content correctness against the written pattern.
  for (std::uint64_t i = 0; i < kDim; ++i) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      EXPECT_EQ(out[i * 4 + b], data[9 + i * kDim + b]);
    }
  }

  // And the simulator accepts/charges the same plan shape.
  layout::IoPlan sim_plan;
  sim_plan.clients.push_back(plan);
  const auto sim = simnet::Replay(
      sim_plan, std::vector<simnet::StorageClassModel>(2, simnet::Class1()));
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim.value().transfer_bytes, plan.transfer_bytes());
}

TEST(ModelValidationTest, ListWriteRoundTripsThroughRealCluster) {
  // A strided list write followed by a contiguous read: the scattered
  // bytes must land at exactly the planned subfile offsets.
  constexpr std::uint64_t kTotal = 64 * 1024;
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 3;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  CreateOptions create;
  create.level = layout::FileLevel::kLinear;
  create.total_bytes = kTotal;
  create.brick_bytes = 1024;
  FileHandle handle = fs->Create("/w", create).value();
  Bytes base(kTotal, 0xEE);
  ASSERT_TRUE(fs->WriteBytes(handle, 0, base).ok());

  // 128 blocks of 16 bytes, stride 96 bytes.
  const client::Datatype pattern =
      client::Datatype::Vector(128, 16, 96, client::Datatype::Bytes(1))
          .value();
  Bytes payload(pattern.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  IoOptions io;
  io.list_io = true;
  ASSERT_TRUE(fs->WriteType(handle, 17, pattern, payload, io).ok());

  Bytes all(kTotal);
  ASSERT_TRUE(fs->ReadBytes(handle, 0, all).ok());
  Bytes expected = base;
  std::uint64_t cursor = 0;
  for (const client::ByteExtent& extent : pattern.extents()) {
    std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(cursor),
                extent.length,
                expected.begin() + static_cast<std::ptrdiff_t>(17 + extent.offset));
    cursor += extent.length;
  }
  EXPECT_EQ(all, expected);
}

}  // namespace
}  // namespace dpfs
