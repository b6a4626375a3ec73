#include "server/subfile_store.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace dpfs::server {
namespace {

class SubfileStoreTest : public ::testing::Test {
 protected:
  SubfileStoreTest()
      : dir_(TempDir::Create("dpfs-store").value()), store_(dir_.path()) {}

  /// ReadFragments into a buffer that starts out full of 0xEE, so a byte
  /// the store left unwritten shows.
  Result<Bytes> Read(const std::string& subfile,
                     const std::vector<net::ReadFragment>& fragments) {
    std::uint64_t total = 0;
    for (const net::ReadFragment& fragment : fragments) {
      total += fragment.length;
    }
    Bytes out(total, 0xEE);
    DPFS_RETURN_IF_ERROR(store_.ReadFragments(subfile, fragments, out));
    return out;
  }

  TempDir dir_;
  SubfileStore store_;
};

TEST_F(SubfileStoreTest, WriteThenReadBack) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3, 4};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false).ok());
  const Bytes data = Read("/f", {{0, 4}}).value();
  EXPECT_EQ(data, (Bytes{1, 2, 3, 4}));
}

TEST_F(SubfileStoreTest, WriteAtOffsetCreatesSparseHole) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{7, 8};
  writes.emplace_back(100, bytes);
  ASSERT_TRUE(store_.WriteFragments("/sparse", writes, false).ok());
  // The hole reads as zeroes.
  const Bytes data = Read("/sparse", {{98, 4}}).value();
  EXPECT_EQ(data, (Bytes{0, 0, 7, 8}));
}

TEST_F(SubfileStoreTest, ReadPastEofZeroFills) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{5};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/short", writes, false).ok());
  const Bytes data = Read("/short", {{0, 8}}).value();
  EXPECT_EQ(data, (Bytes{5, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_F(SubfileStoreTest, ReadMissingSubfileIsAllZeroes) {
  const Bytes data = Read("/nothing", {{0, 4}}).value();
  EXPECT_EQ(data, (Bytes{0, 0, 0, 0}));
}

TEST_F(SubfileStoreTest, ReadBufferMustHoldTheFragmentsExactly) {
  Bytes small(3);
  EXPECT_EQ(store_.ReadFragments("/f", {{0, 4}}, small).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SubfileStoreTest, MultipleFragmentsConcatenatedInOrder) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3, 4, 5, 6, 7, 8};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false).ok());
  const Bytes data = Read("/f", {{6, 2}, {0, 2}}).value();
  EXPECT_EQ(data, (Bytes{7, 8, 1, 2}));
}

TEST_F(SubfileStoreTest, NestedSubfilePathsCreateDirectories) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{42};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(
      store_.WriteFragments("/home/xhshen/dpfs.test", writes, false).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_.path() / "home/xhshen/dpfs.test"));
  EXPECT_EQ(Read("/home/xhshen/dpfs.test", {{0, 1}}).value(),
            (Bytes{42}));
}

TEST_F(SubfileStoreTest, PathEscapeRejected) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1};
  writes.emplace_back(0, bytes);
  EXPECT_FALSE(store_.WriteFragments("/../escape", writes, false).ok());
  EXPECT_FALSE(Read("/a/../../b", {{0, 1}}).ok());
  EXPECT_FALSE(store_.WriteFragments("/", writes, false).ok());
}

TEST_F(SubfileStoreTest, DeleteRemovesSubfile) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false).ok());
  ASSERT_EQ(store_.ListSubfiles().value().size(), 1u);
  ASSERT_TRUE(store_.Delete("/f").ok());
  EXPECT_TRUE(store_.ListSubfiles().value().empty());
  EXPECT_EQ(store_.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(SubfileStoreTest, SyncWriteSucceeds) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  EXPECT_TRUE(store_.WriteFragments("/durable", writes, true).ok());
}

TEST_F(SubfileStoreTest, ListSubfilesGivesNestedNamesAndSizes) {
  EXPECT_TRUE(store_.ListSubfiles().value().empty());
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(100, 1);
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/a", writes, false).ok());
  ASSERT_TRUE(store_.WriteFragments("/sub/b", writes, false).ok());
  // A write past the end leaves a hole that still counts in the size.
  writes[0].offset = 50;
  ASSERT_TRUE(store_.WriteFragments("/sub/deep/c", writes, false).ok());
  EXPECT_EQ(store_.ListSubfiles().value(),
            (std::vector<net::SubfileInfo>{
                {"/a", 100}, {"/sub/b", 100}, {"/sub/deep/c", 150}}));
}

TEST_F(SubfileStoreTest, OverlappingWritesLastWins) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 1, 1, 1};
  writes.emplace_back(0, bytes);
  const Bytes bytes2{9, 9};
  writes.emplace_back(2, bytes2);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false).ok());
  EXPECT_EQ(Read("/f", {{0, 4}}).value(),
            (Bytes{1, 1, 9, 9}));
}

}  // namespace
}  // namespace dpfs::server
