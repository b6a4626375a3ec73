// The full options matrix: every file level × combination × read fetch
// granularity, each doing a real write/read round trip over TCP. Catches
// interactions between independently-tested features.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/cluster.h"

namespace dpfs::client {
namespace {

// (level, combine, whole_brick_reads)
using MatrixParam = std::tuple<int, bool, bool>;

class OptionsMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  static void SetUpTestSuite() {
    core::ClusterOptions options;
    options.num_servers = 3;
    cluster_ = core::LocalCluster::Start(std::move(options)).value().release();
    file_counter_ = 0;
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  static core::LocalCluster* cluster_;
  static int file_counter_;
};

core::LocalCluster* OptionsMatrixTest::cluster_ = nullptr;
int OptionsMatrixTest::file_counter_ = 0;

TEST_P(OptionsMatrixTest, RoundTripAndCrossCheck) {
  const auto [level, combine, whole_brick] = GetParam();
  auto fs = cluster_->fs();

  CreateOptions create;
  create.array_shape = {24, 36};
  create.element_size = 3;
  switch (level) {
    case 0:
      create.level = layout::FileLevel::kLinear;
      create.brick_bytes = 100;  // deliberately unaligned to elements
      break;
    case 1:
      create.level = layout::FileLevel::kMultidim;
      create.brick_shape = {7, 10};  // padded edge bricks
      break;
    case 2:
      create.level = layout::FileLevel::kArray;
      create.pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
      create.chunk_grid = {2, 3};
      break;
  }
  const std::string path = "/matrix" + std::to_string(file_counter_++);
  FileHandle handle = fs->Create(path, create).value();

  IoOptions io;
  io.combine = combine;
  io.whole_brick_reads = whole_brick;

  SplitMix64 rng(level * 1000 + combine * 100 + whole_brick * 10);
  const std::uint64_t total = 24 * 36 * 3;
  Bytes truth(total);
  for (std::uint8_t& b : truth) b = static_cast<std::uint8_t>(rng.NextU64());

  // Whole-array write, partial overwrite, then reads with the same options
  // and with the opposite options must agree.
  ASSERT_TRUE(fs->WriteRegion(handle, {{0, 0}, {24, 36}}, truth, io).ok());
  const layout::Region patch{{5, 11}, {9, 13}};
  Bytes patch_data(patch.num_elements() * 3);
  for (std::uint8_t& b : patch_data) {
    b = static_cast<std::uint8_t>(rng.NextU64());
  }
  ASSERT_TRUE(fs->WriteRegion(handle, patch, patch_data, io).ok());
  // Fold the patch into the truth.
  std::uint64_t cursor = 0;
  for (std::uint64_t r = 0; r < 9; ++r) {
    for (std::uint64_t c = 0; c < 13; ++c) {
      for (int byte = 0; byte < 3; ++byte) {
        truth[((r + 5) * 36 + (c + 11)) * 3 + byte] = patch_data[cursor++];
      }
    }
  }

  Bytes with_options(total);
  ASSERT_TRUE(
      fs->ReadRegion(handle, {{0, 0}, {24, 36}}, with_options, io).ok());
  EXPECT_EQ(with_options, truth);

  IoOptions opposite;
  opposite.combine = !combine;
  opposite.whole_brick_reads = !whole_brick;
  Bytes with_opposite(total);
  ASSERT_TRUE(
      fs->ReadRegion(handle, {{0, 0}, {24, 36}}, with_opposite, opposite)
          .ok());
  EXPECT_EQ(with_opposite, truth);
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  static constexpr const char* kLevels[] = {"Linear", "Multidim", "Array"};
  const auto [level, combine, whole_brick] = info.param;
  std::string name = kLevels[level];
  name += combine ? "Combined" : "PerBrick";
  name += whole_brick ? "Whole" : "Sieve";
  name += "Seq";  // each case runs the client's sequential dispatch (§4.2)
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllOptions, OptionsMatrixTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool(),
                                            ::testing::Bool()),
                         MatrixName);

}  // namespace
}  // namespace dpfs::client
