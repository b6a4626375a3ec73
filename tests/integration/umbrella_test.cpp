// The umbrella header must expose the full public API and version info.
#include "core/dpfs.h"

#include <gtest/gtest.h>

namespace dpfs {
namespace {

TEST(UmbrellaTest, VersionConstants) {
  EXPECT_EQ(kVersionMajor, 1);
  EXPECT_GE(kVersionMinor, 0);
  EXPECT_GE(kVersionPatch, 0);
}

TEST(UmbrellaTest, PublicTypesAreReachable) {
  // Compile-time reachability of each subsystem through the one header.
  [[maybe_unused]] client::CreateOptions create;
  [[maybe_unused]] client::IoOptions io;
  [[maybe_unused]] layout::Region region;
  [[maybe_unused]] layout::PlanOptions plan;
  [[maybe_unused]] simnet::ReplayOptions replay;
  [[maybe_unused]] core::ClusterOptions cluster;
  [[maybe_unused]] server::ServerOptions server;
  EXPECT_EQ(static_cast<int>(layout::FileLevel::kLinear), 0);
  EXPECT_EQ(static_cast<int>(layout::FileLevel::kArray), 2);
}

TEST(UmbrellaTest, DefaultsMatchPaperSemantics) {
  // The out-of-the-box behaviour is the paper's: combination on, rotation
  // on, whole-brick reads, round-robin placement.
  const client::IoOptions io;
  EXPECT_TRUE(io.combine);
  EXPECT_TRUE(io.rotate_start);
  EXPECT_TRUE(io.whole_brick_reads);
  const client::CreateOptions create;
  EXPECT_EQ(create.placement, layout::PlacementPolicy::kRoundRobin);
  EXPECT_EQ(create.brick_bytes, 64u * 1024);  // the paper's brick size
}

}  // namespace
}  // namespace dpfs
