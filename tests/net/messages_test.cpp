#include "net/messages.h"

#include <algorithm>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "net/frame.h"

namespace dpfs::net {
namespace {

TEST(ReadRequestTest, EncodeDecodeRoundTrip) {
  ReadRequest request;
  request.subfile = "/home/x/data.dpfs";
  request.fragments = {{0, 1024}, {4096, 512}, {1 << 20, 64}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ReadRequest decoded = ReadRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, request.subfile);
  EXPECT_EQ(decoded.fragments, request.fragments);
  EXPECT_EQ(decoded.total_bytes(), 1600u);
}

TEST(ReadRequestTest, EmptyFragments) {
  ReadRequest request;
  request.subfile = "f";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ReadRequest decoded = ReadRequest::Decode(reader).value();
  EXPECT_TRUE(decoded.fragments.empty());
  EXPECT_EQ(decoded.total_bytes(), 0u);
}

TEST(ReadRequestTest, AcceptsUnorderedAndOverlappingFragments) {
  // Whole-brick and replica-rank requests name slots in plan order, not
  // subfile order, so decode imposes no ordering rule.
  ReadRequest request;
  request.subfile = "f";
  request.fragments = {{4096, 64}, {0, 64}, {32, 64}, {32, 0}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ReadRequest::Decode(reader).value().fragments, request.fragments);
}

TEST(ReadRequestTest, RejectsLyingCountBeforeAllocating) {
  // A count of 2^32 - 1 backed by one fragment: decode must fail on the
  // missing bytes, not reserve 64 GiB for fragments that never arrive.
  BinaryWriter writer;
  writer.WriteString("f");
  writer.WriteU32(0xFFFFFFFFu);
  writer.WriteU64(0);
  writer.WriteU64(8);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ReadRequestTest, RejectsTruncatedFragmentList) {
  ReadRequest request;
  request.subfile = "f";
  request.fragments = {{0, 8}, {16, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  const ByteSpan whole(writer.buffer());
  BinaryReader reader(whole.subspan(0, whole.size() - 5));
  EXPECT_EQ(ReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ReadRequestTest, RejectsMoreThanOneReplyFrame) {
  // The reply must carry every requested byte in one frame.
  ReadRequest request;
  request.subfile = "f";
  request.fragments = {{0, 1ull << 40}};  // 1 TiB
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);

  // The largest read whose ok reply still fits kMaxFrameBytes decodes.
  request.fragments = {{0, kMaxFrameBytes - 6}, {0, 1}};
  BinaryWriter fits;
  request.Encode(fits);
  BinaryReader fits_reader(fits.buffer());
  EXPECT_TRUE(ReadRequest::Decode(fits_reader).ok());
  request.fragments.push_back({0, 1});
  BinaryWriter over;
  request.Encode(over);
  BinaryReader over_reader(over.buffer());
  EXPECT_FALSE(ReadRequest::Decode(over_reader).ok());
}

TEST(ReadRequestTest, RejectsLengthsThatWrapTheSum) {
  // 2^63 + (2^63 + 16) wraps a u64 sum to 16: a store sizing its reply by
  // the wrapped total would read past a 16-byte buffer.
  ReadRequest request;
  request.subfile = "f";
  request.fragments = {{0, 1ull << 63}, {0, (1ull << 63) + 16}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(WriteRequestTest, EncodeDecodeRoundTrip) {
  WriteRequest request;
  request.subfile = "/a/b";
  request.sync = true;
  request.fragments.push_back({128, Bytes{1, 2, 3, 4}});
  request.fragments.push_back({0, Bytes{9}});
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const WriteRequest decoded = WriteRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, "/a/b");
  EXPECT_TRUE(decoded.sync);
  ASSERT_EQ(decoded.fragments.size(), 2u);
  EXPECT_EQ(decoded.fragments[0].offset, 128u);
  EXPECT_EQ(decoded.fragments[0].data, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(decoded.total_bytes(), 5u);
}

TEST(WriteRequestTest, RejectsLyingCountBeforeAllocating) {
  BinaryWriter writer;
  writer.WriteString("f");
  writer.WriteBool(false);
  writer.WriteU32(0xFFFFFFFFu);
  writer.WriteU64(0);
  writer.WriteBytes(Bytes{1, 2, 3});  // one fragment, not 4 billion
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(WriteRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(EnvelopeTest, RequestRoundTrip) {
  const Bytes body = {10, 20, 30};
  const Bytes frame = EncodeRequest(MessageType::kRead, body);
  const DecodedRequest decoded = DecodeRequest(frame).value();
  EXPECT_EQ(decoded.type, MessageType::kRead);
  EXPECT_EQ(Bytes(decoded.body.begin(), decoded.body.end()), body);
}

/// Type bytes inside [1, kMaxMessageType] with no enumerator: retired
/// opcodes, never renumbered (4 stat, 6 truncate, 9 rename, 15
/// meta_lookup_server and 18 meta_update_size among them).
constexpr std::uint8_t kUnassignedTypes[] = {4, 6, 8, 9, 15, 18, 24, 25, 26};

TEST(EnvelopeTest, BadTypeRejected) {
  Bytes frame = {0x7F};
  EXPECT_FALSE(DecodeRequest(frame).ok());
  Bytes empty;
  EXPECT_FALSE(DecodeRequest(empty).ok());
  // Inside the range but with no enumerator, and the retired list_read and
  // list_write (31, 32) just past it.
  for (const std::uint8_t type : {4, 6, 8, 9, 15, 18, 24, 25, 26, 31, 32}) {
    Bytes unassigned = {type};
    const Status status = DecodeRequest(unassigned).status();
    EXPECT_EQ(status.code(), StatusCode::kProtocolError);
    EXPECT_EQ(status.message(), "bad message type " + std::to_string(type));
  }
}

TEST(EnvelopeTest, FirstTypePastTheRangeRejected) {
  // One past kMaxMessageType (currently kMetaListDirectory): keeps the
  // DecodeRequest range check honest when a new opcode is added (bump the
  // check, then extend this test).
  Bytes frame = {static_cast<std::uint8_t>(kMaxMessageType + 1)};
  EXPECT_FALSE(DecodeRequest(frame).ok());
  Bytes zero = {0};
  EXPECT_FALSE(DecodeRequest(zero).ok());
  // Every type up to the max decodes (the body is opaque at this layer),
  // except the unassigned ones.
  for (std::uint8_t type = 1; type <= kMaxMessageType; ++type) {
    Bytes in_range = {type};
    const bool unassigned =
        std::find(std::begin(kUnassignedTypes), std::end(kUnassignedTypes),
                  type) != std::end(kUnassignedTypes);
    EXPECT_EQ(DecodeRequest(in_range).ok(), !unassigned)
        << static_cast<int>(type);
  }
}

TEST(EnvelopeTest, OkReplyRoundTrip) {
  const Bytes body = {1, 2};
  const Bytes frame = EncodeReply(Status::Ok(), body);
  const DecodedReply decoded = DecodeReply(frame).value();
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(Bytes(decoded.body.begin(), decoded.body.end()), body);
}

TEST(EnvelopeTest, ErrorReplyCarriesCodeAndMessage) {
  const Bytes frame = EncodeReply(NotFoundError("no subfile"), {});
  const DecodedReply decoded = DecodeReply(frame).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status.message(), "no subfile");
}

TEST(EnvelopeTest, AllMessageTypesDecodable) {
  for (const MessageType type :
       {MessageType::kPing, MessageType::kRead, MessageType::kWrite,
        MessageType::kDelete, MessageType::kShutdown, MessageType::kList,
        MessageType::kMetrics}) {
    const Bytes frame = EncodeRequest(type, {});
    EXPECT_EQ(DecodeRequest(frame).value().type, type);
    EXPECT_NE(MessageTypeName(type), "unknown");
  }
}

}  // namespace
}  // namespace dpfs::net
