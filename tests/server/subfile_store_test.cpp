#include "server/subfile_store.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/temp_dir.h"

namespace dpfs::server {
namespace {

/// How far one registry counter moved since construction.
class Delta {
 public:
  explicit Delta(const std::string& name)
      : counter_(metrics::GetCounter(name)), before_(counter_.value()) {}
  std::uint64_t operator()() const { return counter_.value() - before_; }

 private:
  const metrics::Counter& counter_;
  const std::uint64_t before_;
};

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
  Bytes scratch_;  // WriteFragments' span buffer, kept across writes
};

TEST_F(SubfileStoreTest, WriteThenReadBack) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3, 4};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  const Bytes data = Read("/f", {{0, 4}}).value();
  EXPECT_EQ(data, (Bytes{1, 2, 3, 4}));
}

TEST_F(SubfileStoreTest, WriteAtOffsetCreatesSparseHole) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{7, 8};
  writes.emplace_back(100, bytes);
  ASSERT_TRUE(
      store_.WriteFragments("/sparse", writes, false, scratch_).ok());
  // The hole reads as zeroes.
  const Bytes data = Read("/sparse", {{98, 4}}).value();
  EXPECT_EQ(data, (Bytes{0, 0, 7, 8}));
}

TEST_F(SubfileStoreTest, ReadPastEofZeroFills) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{5};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/short", writes, false, scratch_).ok());
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
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  const Bytes data = Read("/f", {{6, 2}, {0, 2}}).value();
  EXPECT_EQ(data, (Bytes{7, 8, 1, 2}));
}

TEST_F(SubfileStoreTest, NestedSubfilePathsCreateDirectories) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{42};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_
                  .WriteFragments("/home/xhshen/dpfs.test", writes, false,
                                  scratch_)
                  .ok());
  EXPECT_TRUE(std::filesystem::exists(dir_.path() / "home/xhshen/dpfs.test"));
  EXPECT_EQ(Read("/home/xhshen/dpfs.test", {{0, 1}}).value(),
            (Bytes{42}));
}

TEST_F(SubfileStoreTest, PathEscapeRejected) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1};
  writes.emplace_back(0, bytes);
  EXPECT_FALSE(
      store_.WriteFragments("/../escape", writes, false, scratch_).ok());
  EXPECT_FALSE(Read("/a/../../b", {{0, 1}}).ok());
  EXPECT_FALSE(store_.WriteFragments("/", writes, false, scratch_).ok());
}

TEST_F(SubfileStoreTest, DeleteRemovesSubfile) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  ASSERT_EQ(store_.ListSubfiles().value().size(), 1u);
  ASSERT_TRUE(store_.Delete("/f").ok());
  EXPECT_TRUE(store_.ListSubfiles().value().empty());
  EXPECT_EQ(store_.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(SubfileStoreTest, SyncWriteSucceeds) {
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  EXPECT_TRUE(
      store_.WriteFragments("/durable", writes, true, scratch_).ok());
}

TEST_F(SubfileStoreTest, ListSubfilesGivesNestedNamesAndSizes) {
  EXPECT_TRUE(store_.ListSubfiles().value().empty());
  std::vector<net::WriteFragment> writes;
  const Bytes bytes(100, 1);
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(store_.WriteFragments("/a", writes, false, scratch_).ok());
  ASSERT_TRUE(store_.WriteFragments("/sub/b", writes, false, scratch_).ok());
  // A write past the end leaves a hole that still counts in the size.
  writes[0].offset = 50;
  ASSERT_TRUE(
      store_.WriteFragments("/sub/deep/c", writes, false, scratch_).ok());
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
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  EXPECT_EQ(Read("/f", {{0, 4}}).value(),
            (Bytes{1, 1, 9, 9}));
}

// A span whose fragments leave gaps is read, patched and written whole;
// past EOF its gaps were holes and stay zeroes, and the file ends where
// the last fragment ends. An empty fragment writes nothing, so one just
// past the span neither joins it nor moves EOF.
TEST_F(SubfileStoreTest, SievedSpanPastEofEndsAtItsLastFragment) {
  std::vector<net::WriteFragment> writes;
  const Bytes head(10, 0x11);
  writes.emplace_back(0, head);
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());

  const Delta spans("subfile_store.sieved_spans");
  const Delta gap_bytes("subfile_store.sieved_gap_bytes");
  const Delta written("subfile_store.bytes_written");
  const Bytes a{2, 2, 2};
  const Bytes b{3, 3};
  const Bytes c{4};
  const Bytes empty;
  writes = {{5, a}, {20, b}, {30, c}, {40, empty}};
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  EXPECT_EQ(spans(), 1u);
  EXPECT_EQ(gap_bytes(), 12u + 8u);
  EXPECT_EQ(written(), 6u);  // payload only

  Bytes expected(31, 0);
  std::fill_n(expected.begin(), 10, std::uint8_t{0x11});
  std::fill_n(expected.begin() + 5, 3, std::uint8_t{2});
  std::fill_n(expected.begin() + 20, 2, std::uint8_t{3});
  expected[30] = 4;
  EXPECT_EQ(Read("/f", {{0, 31}}).value(), expected);
  EXPECT_EQ(store_.ListSubfiles().value(),
            (std::vector<net::SubfileInfo>{{"/f", 31}}));
}

TEST_F(SubfileStoreTest, GapsOfAPageOrMoreAreNotSieved) {
  const Delta spans("subfile_store.sieved_spans");
  std::vector<net::WriteFragment> writes;
  const Bytes one{7};
  writes = {{0, one}, {1 + SubfileStore::kSieveGapLimit, one}};
  ASSERT_TRUE(store_.WriteFragments("/far", writes, false, scratch_).ok());
  EXPECT_EQ(spans(), 0u);
  EXPECT_TRUE(scratch_.empty());  // neither read nor assembled
  writes = {{0, one}, {SubfileStore::kSieveGapLimit, one}};
  ASSERT_TRUE(store_.WriteFragments("/near", writes, false, scratch_).ok());
  EXPECT_EQ(spans(), 1u);

  const std::uint64_t far = 1 + SubfileStore::kSieveGapLimit;
  Bytes expected(far + 1, 0);
  expected.front() = 7;
  expected.back() = 7;
  EXPECT_EQ(Read("/far", {{0, far + 1}}).value(), expected);
  expected.pop_back();
  expected.back() = 7;
  EXPECT_EQ(Read("/near", {{0, far}}).value(), expected);
}

TEST_F(SubfileStoreTest, FragmentsWithoutGapsAreWrittenWithoutARead) {
  const Delta spans("subfile_store.sieved_spans");
  const Bytes a{1, 2};
  const Bytes b{3, 4};
  const Bytes c{5};
  std::vector<net::WriteFragment> writes = {{0, a}, {2, b}, {4, c}};
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  EXPECT_EQ(spans(), 0u);
  EXPECT_EQ(Read("/f", {{0, 5}}).value(), (Bytes{1, 2, 3, 4, 5}));
}

// A fragment that goes back or overlaps starts a new span, so a later span
// reads what an earlier one of the same request wrote, and the last
// writer of each byte wins as if each fragment went down alone.
TEST_F(SubfileStoreTest, BackwardAndOverlappingFragmentsKeepRequestOrder) {
  const Bytes ones(4, 1);
  const Bytes twos(4, 2);
  const Bytes nines(2, 9);
  const Bytes seven{7};
  const Bytes five{5};
  std::vector<net::WriteFragment> writes = {
      {0, ones}, {8, twos}, {2, nines}, {10, seven}, {9, five}};
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());
  EXPECT_EQ(Read("/f", {{0, 12}}).value(),
            (Bytes{1, 1, 9, 9, 0, 0, 0, 0, 2, 5, 7, 2}));
}

// The rule's worst case: 1-byte fragments 4095 bytes apart all sit within
// a page of each other, so only the span cap ends a span.
TEST_F(SubfileStoreTest, OneByteFragmentsAPageApartStayWithinTheSpanCap) {
  constexpr std::uint64_t kApart = SubfileStore::kSieveGapLimit - 1;
  constexpr std::size_t kFragments = 600;
  const Delta spans("subfile_store.sieved_spans");
  const Delta gap_bytes("subfile_store.sieved_gap_bytes");
  const Delta written("subfile_store.bytes_written");
  Bytes values(kFragments);
  std::vector<net::WriteFragment> writes;
  for (std::size_t i = 0; i < kFragments; ++i) {
    values[i] = static_cast<std::uint8_t>(i % 251 + 1);
    writes.emplace_back(i * kApart, ByteSpan(values).subspan(i, 1));
  }
  ASSERT_TRUE(store_.WriteFragments("/f", writes, false, scratch_).ok());

  EXPECT_LE(scratch_.size(), SubfileStore::kMaxSpanBytes);
  // A span holds 1 + floor((cap - 1) / 4095) = 257 fragments.
  constexpr std::size_t kPerSpan =
      1 + (SubfileStore::kMaxSpanBytes - 1) / kApart;
  constexpr std::size_t kSpans = (kFragments + kPerSpan - 1) / kPerSpan;
  EXPECT_EQ(spans(), kSpans);
  EXPECT_EQ(gap_bytes(), (kFragments - kSpans) * (kApart - 1));
  EXPECT_EQ(written(), kFragments);

  const std::uint64_t size = (kFragments - 1) * kApart + 1;
  const Bytes data = Read("/f", {{0, size}}).value();
  for (std::uint64_t at = 0; at < size; ++at) {
    const std::uint8_t expected =
        at % kApart == 0 ? values[at / kApart] : std::uint8_t{0};
    ASSERT_EQ(data[at], expected) << "byte " << at;
  }
}

}  // namespace
}  // namespace dpfs::server
