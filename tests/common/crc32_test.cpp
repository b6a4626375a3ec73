#include "common/crc32.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dpfs {
namespace {

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, AllZeros32Bytes) {
  // Another RFC 3720 vector: 32 bytes of zeros → 0x8A9136AA.
  const Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t one_shot = Crc32c(AsBytes(data));
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, data.size() - i);
    crc = Crc32cExtend(crc, AsBytes(data.data() + i, len));
  }
  EXPECT_EQ(crc, one_shot);
}

TEST(Crc32cTest, SingleBitFlipChangesCrc) {
  Bytes data(100, 0x5A);
  const std::uint32_t before = Crc32c(data);
  data[50] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32cTest, DifferentLengthsDiffer) {
  const Bytes a(10, 0);
  const Bytes b(11, 0);
  EXPECT_NE(Crc32c(a), Crc32c(b));
}

Bytes RandomBytes(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes bytes(size);
  for (std::uint8_t& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  return bytes;
}

// Crc32cExtend runs whichever implementation the CPU supports; the table is
// the reference. The fast path loads 8 bytes at a time, so every start
// offset within two words, and tails of every length, must agree too.
TEST(Crc32cTest, DispatchedMatchesTableAtEveryLengthAndOffset) {
  const Bytes buffer = RandomBytes(4096 + 16, 22);
  SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::size_t length = rng.NextBelow(4097);
    for (std::size_t start = 0; start < 16; ++start) {
      const ByteSpan span = ByteSpan(buffer).subspan(start, length);
      ASSERT_EQ(Crc32c(span), internal::Crc32cExtendTable(0, span))
          << "length " << length << " start " << start;
    }
  }
  const Bytes large = RandomBytes((1u << 20) + 7, 23);
  EXPECT_EQ(Crc32c(large), internal::Crc32cExtendTable(0, large));
}

// The fast path runs three streams over groups of three 8 KiB blocks, then
// of three 256-byte blocks, then single words, and joins the streams with
// shift tables; lengths at each edge, from a non-zero CRC, check the joins.
TEST(Crc32cTest, DispatchedMatchesTableAtTheStreamBlockEdges) {
  constexpr std::size_t kShort = 3 * 256;
  constexpr std::size_t kLong = 3 * 8192;
  const Bytes buffer = RandomBytes(2 * kLong + 16, 25);
  for (const std::size_t length :
       {kShort - 1, kShort, kShort + 1, kLong - 1, kLong, kLong + 1,
        kLong + kShort + 7, 2 * kLong}) {
    for (std::size_t start = 0; start < 16; ++start) {
      const ByteSpan span = ByteSpan(buffer).subspan(start, length);
      ASSERT_EQ(Crc32cExtend(0x9E3779B9u, span),
                internal::Crc32cExtendTable(0x9E3779B9u, span))
          << "length " << length << " start " << start;
    }
  }
}

TEST(Crc32cTest, DispatchedExtendMatchesTableAtEverySplit) {
  const Bytes buffer = RandomBytes(1024, 24);
  const std::uint32_t whole = internal::Crc32cExtendTable(0, buffer);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = Crc32cExtend(0, ByteSpan(buffer).first(split));
    ASSERT_EQ(Crc32cExtend(head, ByteSpan(buffer).subspan(split)), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace dpfs
