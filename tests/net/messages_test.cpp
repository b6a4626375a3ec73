#include "net/messages.h"

#include <algorithm>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

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

TEST(EnvelopeTest, RequestRoundTrip) {
  const Bytes body = {10, 20, 30};
  const Bytes frame = EncodeRequest(MessageType::kRead, body);
  const DecodedRequest decoded = DecodeRequest(frame).value();
  EXPECT_EQ(decoded.type, MessageType::kRead);
  EXPECT_EQ(Bytes(decoded.body.begin(), decoded.body.end()), body);
}

/// Type bytes inside [1, kMaxMessageType] with no enumerator: retired
/// opcodes, never renumbered (4 stat, 6 truncate and 9 rename among them).
constexpr std::uint8_t kUnassignedTypes[] = {4, 6, 8, 9, 24, 25, 26};

TEST(EnvelopeTest, BadTypeRejected) {
  Bytes frame = {0x7F};
  EXPECT_FALSE(DecodeRequest(frame).ok());
  Bytes empty;
  EXPECT_FALSE(DecodeRequest(empty).ok());
  // Inside the range but with no enumerator.
  for (const std::uint8_t type : kUnassignedTypes) {
    Bytes unassigned = {type};
    const Status status = DecodeRequest(unassigned).status();
    EXPECT_EQ(status.code(), StatusCode::kProtocolError);
    EXPECT_EQ(status.message(), "bad message type " + std::to_string(type));
  }
}

TEST(EnvelopeTest, FirstTypePastTheRangeRejected) {
  // One past kMaxMessageType (currently kListWrite): keeps the
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
        MessageType::kMetrics, MessageType::kListRead,
        MessageType::kListWrite}) {
    const Bytes frame = EncodeRequest(type, {});
    EXPECT_EQ(DecodeRequest(frame).value().type, type);
    EXPECT_NE(MessageTypeName(type), "unknown");
  }
}

// --- list I/O (docs/WIRE_PROTOCOL.md "List I/O") ---------------------------

TEST(ListReadRequestTest, EncodeDecodeRoundTrip) {
  ListReadRequest request;
  request.subfile = "/home/x/data.dpfs";
  request.extents = {{0, 16}, {64, 8}, {4096, 128}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ListReadRequest decoded = ListReadRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, request.subfile);
  EXPECT_EQ(decoded.extents, request.extents);
  EXPECT_EQ(decoded.total_bytes(), 152u);
}

TEST(ListReadRequestTest, AdjacentExtentsAccepted) {
  // Adjacent (touching) extents are legal — only overlap is rejected.
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {8, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsEmptyExtentList) {
  ListReadRequest request;
  request.subfile = "f";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ListReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ListReadRequestTest, RejectsZeroLengthExtent) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {32, 0}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsOverlappingExtents) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 16}, {8, 16}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsDescendingExtents) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{64, 8}, {0, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsExtentOverflowingOffsetSpace) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{~std::uint64_t{0} - 4, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsLyingCountBeforeAllocating) {
  // A count claiming far more extents than the body holds must fail the
  // remaining-bytes check, not attempt a giant reserve.
  BinaryWriter writer;
  writer.WriteString("f");
  writer.WriteU32(0xFFFFFFFFu);
  writer.WriteU64(0);  // one extent's worth of bytes, not 4 billion
  writer.WriteU64(8);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsTruncatedExtentList) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {16, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  const ByteSpan whole(writer.buffer());
  BinaryReader reader(whole.subspan(0, whole.size() - 5));
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListWriteRequestTest, EncodeDecodeRoundTrip) {
  ListWriteRequest request;
  request.subfile = "/a/b";
  request.sync = true;
  request.extents = {{128, 4}, {256, 2}};
  request.data = {1, 2, 3, 4, 9, 8};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ListWriteRequest decoded = ListWriteRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, "/a/b");
  EXPECT_TRUE(decoded.sync);
  EXPECT_EQ(decoded.extents, request.extents);
  EXPECT_EQ(decoded.data, request.data);
  EXPECT_EQ(decoded.total_bytes(), 6u);
}

TEST(ListWriteRequestTest, RejectsPayloadShorterThanExtentSum) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}};
  request.data = {1, 2, 3};  // 3 bytes for 8 bytes of extents
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ListWriteRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ListWriteRequestTest, RejectsPayloadLongerThanExtentSum) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 2}};
  request.data = {1, 2, 3};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListWriteRequest::Decode(reader).ok());
}

TEST(ListWriteRequestTest, RejectsOverlappingExtents) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 4}, {2, 4}};
  request.data = {1, 2, 3, 4, 5, 6, 7, 8};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListWriteRequest::Decode(reader).ok());
}

}  // namespace
}  // namespace dpfs::net
