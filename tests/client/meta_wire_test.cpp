// Round-trip coverage for every metadata wire message: Decode(Encode(x))
// must reproduce x field-for-field, and truncated or corrupt bodies must
// fail with an error, never crash. The wire layout is documented in
// docs/WIRE_PROTOCOL.md ("Metadata protocol"); this suite is what keeps
// that document honest.
#include "client/meta_wire.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "client/metadata_service.h"
#include "common/bytes.h"
#include "layout/hpf.h"
#include "layout/placement.h"

namespace dpfs::client::meta_wire {
namespace {

ServerInfo MakeServer(const std::string& name, std::uint16_t port) {
  ServerInfo info;
  info.name = name;
  info.endpoint.host = "127.0.0.1";
  info.endpoint.port = port;
  info.capacity_bytes = 1ull << 33;
  info.performance = 2;
  return info;
}

FileMeta MakeArrayMeta() {
  FileMeta meta;
  meta.path = "/data/climate.dat";
  meta.subfile = "/0123456789abcdef0123456789abcdef";
  meta.owner = "xhshen";
  meta.permission = 0640;
  meta.size_bytes = 4096;
  meta.level = layout::FileLevel::kArray;
  meta.element_size = 8;
  meta.array_shape = {64, 64};
  meta.brick_shape = {16, 16};
  meta.pattern = layout::HpfPattern::Parse("(BLOCK,*)").value();
  meta.chunk_grid = {2, 2};
  return meta;
}

void ExpectServerInfoEq(const ServerInfo& a, const ServerInfo& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.endpoint.host, b.endpoint.host);
  EXPECT_EQ(a.endpoint.port, b.endpoint.port);
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes);
  EXPECT_EQ(a.performance, b.performance);
}

void ExpectFileMetaEq(const FileMeta& a, const FileMeta& b) {
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.subfile, b.subfile);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.permission, b.permission);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.element_size, b.element_size);
  EXPECT_EQ(a.array_shape, b.array_shape);
  EXPECT_EQ(a.brick_bytes, b.brick_bytes);
  EXPECT_EQ(a.brick_shape, b.brick_shape);
  EXPECT_EQ(a.pattern.has_value(), b.pattern.has_value());
  if (a.pattern.has_value() && b.pattern.has_value()) {
    EXPECT_EQ(*a.pattern, *b.pattern);
  }
  EXPECT_EQ(a.chunk_grid, b.chunk_grid);
}

TEST(MetaWireFieldCodecs, ServerInfoRoundTrip) {
  const ServerInfo info = MakeServer("ionode001.dpfs.local", 7070);
  BinaryWriter writer;
  EncodeServerInfo(info, writer);
  BinaryReader reader(writer.buffer());
  const ServerInfo decoded = DecodeServerInfo(reader).value();
  ExpectServerInfoEq(decoded, info);
}

TEST(MetaWireFieldCodecs, LinearFileMetaRoundTrip) {
  FileMeta meta;
  meta.path = "/a/b.dat";
  meta.subfile = "/fedcba9876543210fedcba9876543210";
  meta.owner = "alice";
  meta.size_bytes = 123456789;
  meta.brick_bytes = 65536;
  BinaryWriter writer;
  EncodeFileMeta(meta, writer);
  BinaryReader reader(writer.buffer());
  const FileMeta decoded = DecodeFileMeta(reader).value();
  ExpectFileMetaEq(decoded, meta);
  EXPECT_FALSE(decoded.pattern.has_value());
}

TEST(MetaWireFieldCodecs, ArrayFileMetaRoundTrip) {
  const FileMeta meta = MakeArrayMeta();
  BinaryWriter writer;
  EncodeFileMeta(meta, writer);
  BinaryReader reader(writer.buffer());
  const FileMeta decoded = DecodeFileMeta(reader).value();
  ExpectFileMetaEq(decoded, meta);
}

TEST(MetaWireFieldCodecs, FileMetaBadLevelRejected) {
  FileMeta meta;
  meta.path = "/x";
  BinaryWriter writer;
  EncodeFileMeta(meta, writer);
  Bytes body = writer.buffer();
  // The level byte follows path, subfile, owner, permission(u32),
  // size(u64); easier to corrupt by re-encoding than by offset arithmetic:
  // scan for the known level value is fragile, so re-encode with a raw
  // writer instead.
  BinaryWriter corrupt;
  corrupt.WriteString(meta.path);
  corrupt.WriteString(meta.subfile);
  corrupt.WriteString(meta.owner);
  corrupt.WriteU32(meta.permission);
  corrupt.WriteU64(meta.size_bytes);
  corrupt.WriteU8(0x7F);  // not a FileLevel
  BinaryReader reader(corrupt.buffer());
  EXPECT_FALSE(DecodeFileMeta(reader).ok());
}

TEST(MetaWireRequests, ServerRequestRoundTrip) {
  ServerRequest request;
  request.server = MakeServer("ionode002.dpfs.local", 9001);
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ServerRequest decoded = ServerRequest::Decode(reader).value();
  ExpectServerInfoEq(decoded.server, request.server);
}

TEST(MetaWireRequests, NameRequestRoundTrip) {
  NameRequest request;
  request.name = "ionode003.dpfs.local";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(NameRequest::Decode(reader).value().name, request.name);
}

TEST(MetaWireRequests, PathRequestRoundTrip) {
  PathRequest request;
  request.path = "/home/xhshen/dpfs.test";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(PathRequest::Decode(reader).value().path, request.path);
}

TEST(MetaWireRequests, CreateFileRequestRoundTrip) {
  CreateFileRequest request;
  request.meta = MakeArrayMeta();
  request.hints.policy = layout::PlacementPolicy::kCapacityAware;
  request.hints.suggested_io_nodes = 3;
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const CreateFileRequest decoded = CreateFileRequest::Decode(reader).value();
  ExpectFileMetaEq(decoded.meta, request.meta);
  EXPECT_EQ(decoded.hints.policy, request.hints.policy);
  EXPECT_EQ(decoded.hints.suggested_io_nodes, 3u);
  EXPECT_EQ(decoded.hints.replication, layout::ReplicationSpec{});
  EXPECT_TRUE(reader.AtEnd());
}

TEST(MetaWireRequests, CreateFileRequestBadPolicyRejected) {
  // The policy byte follows the FileMeta; a value past kCapacityAware is
  // a protocol error, not a placement the service has to guess at.
  CreateFileRequest request;
  request.meta = MakeArrayMeta();
  BinaryWriter writer;
  request.Encode(writer);
  Bytes body = writer.buffer();
  BinaryWriter meta_only;
  EncodeFileMeta(request.meta, meta_only);
  body[meta_only.buffer().size()] = 3;
  BinaryReader reader(body);
  EXPECT_EQ(CreateFileRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(MetaWireRequests, SetPermissionRequestRoundTrip) {
  SetPermissionRequest request;
  request.path = "/a";
  request.permission = 0755;
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const SetPermissionRequest decoded =
      SetPermissionRequest::Decode(reader).value();
  EXPECT_EQ(decoded.path, request.path);
  EXPECT_EQ(decoded.permission, request.permission);
}

TEST(MetaWireRequests, SetOwnerRequestRoundTrip) {
  SetOwnerRequest request;
  request.path = "/a";
  request.owner = "bob";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const SetOwnerRequest decoded = SetOwnerRequest::Decode(reader).value();
  EXPECT_EQ(decoded.path, request.path);
  EXPECT_EQ(decoded.owner, request.owner);
}

TEST(MetaWireRequests, RenameRequestRoundTrip) {
  RenameRequest request;
  request.from = "/old/name";
  request.to = "/new/name";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const RenameRequest decoded = RenameRequest::Decode(reader).value();
  EXPECT_EQ(decoded.from, request.from);
  EXPECT_EQ(decoded.to, request.to);
}

TEST(MetaWireReplies, ServerListReplyRoundTrip) {
  ServerListReply reply;
  reply.servers.push_back(MakeServer("a", 1));
  reply.servers.push_back(MakeServer("b", 2));
  BinaryWriter writer;
  reply.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ServerListReply decoded = ServerListReply::Decode(reader).value();
  ASSERT_EQ(decoded.servers.size(), 2u);
  ExpectServerInfoEq(decoded.servers[0], reply.servers[0]);
  ExpectServerInfoEq(decoded.servers[1], reply.servers[1]);
}

TEST(MetaWireReplies, EmptyServerListReplyRoundTrip) {
  ServerListReply reply;
  BinaryWriter writer;
  reply.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(ServerListReply::Decode(reader).value().servers.empty());
}

TEST(MetaWireReplies, FileRecordReplyRoundTrip) {
  FileRecordReply reply;
  reply.record.meta = MakeArrayMeta();
  reply.record.servers = {MakeServer("s0", 10), MakeServer("s1", 11)};
  reply.record.distribution =
      layout::BrickDistribution::FromBrickLists(
          4, {{0, 2}, {1, 3}})
          .value();
  BinaryWriter writer;
  reply.Encode(writer);
  BinaryReader reader(writer.buffer());
  const FileRecordReply decoded = FileRecordReply::Decode(reader).value();
  ExpectFileMetaEq(decoded.record.meta, reply.record.meta);
  ASSERT_EQ(decoded.record.servers.size(), 2u);
  ExpectServerInfoEq(decoded.record.servers[0], reply.record.servers[0]);
  ExpectServerInfoEq(decoded.record.servers[1], reply.record.servers[1]);
  EXPECT_EQ(decoded.record.distribution.num_bricks(), 4u);
  EXPECT_EQ(decoded.record.distribution.num_servers(), 2u);
  EXPECT_EQ(decoded.record.distribution.bricks_on(0),
            (std::vector<layout::BrickId>{0, 2}));
  EXPECT_EQ(decoded.record.distribution.bricks_on(1),
            (std::vector<layout::BrickId>{1, 3}));
}

TEST(MetaWireReplies, BoolReplyRoundTrip) {
  for (const bool value : {false, true}) {
    BoolReply reply;
    reply.value = value;
    BinaryWriter writer;
    reply.Encode(writer);
    BinaryReader reader(writer.buffer());
    EXPECT_EQ(BoolReply::Decode(reader).value().value, value);
  }
}

TEST(MetaWireReplies, ListingReplyRoundTrip) {
  ListingReply reply;
  reply.listing.directories = {"sub1", "sub2"};
  reply.listing.files = {"a.dat", "b.dat", "c.dat"};
  BinaryWriter writer;
  reply.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ListingReply decoded = ListingReply::Decode(reader).value();
  EXPECT_EQ(decoded.listing.directories, reply.listing.directories);
  EXPECT_EQ(decoded.listing.files, reply.listing.files);
}

TEST(MetaWireReplication, CreateFileRequestReplicationHintsRoundTrip) {
  CreateFileRequest request;
  request.meta = MakeArrayMeta();
  request.hints.replication.factor = 2;
  request.hints.replication.domains = {0, 0, 1, 1};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const CreateFileRequest decoded = CreateFileRequest::Decode(reader).value();
  EXPECT_EQ(decoded.hints.replication, request.hints.replication);
}

TEST(MetaWireReplication, UnreplicatedRecordFrameHasNoReplicaSection) {
  // An R = 1 record omits the trailing replica section, so its frame is
  // the pre-replication format: exactly the prefix of the same record with
  // a replica rank, and it decodes with no replicas.
  FileRecordReply reply;
  reply.record.meta = MakeArrayMeta();
  reply.record.servers = {MakeServer("s0", 10), MakeServer("s1", 11)};
  reply.record.distribution =
      layout::BrickDistribution::FromBrickLists(4, {{0, 2}, {1, 3}}).value();
  BinaryWriter unreplicated;
  reply.Encode(unreplicated);
  reply.record.replicas = {
      layout::BrickDistribution::FromBrickLists(4, {{1, 3}, {0, 2}}).value()};
  BinaryWriter replicated;
  reply.Encode(replicated);
  ASSERT_LT(unreplicated.buffer().size(), replicated.buffer().size());
  EXPECT_TRUE(std::equal(unreplicated.buffer().begin(),
                         unreplicated.buffer().end(),
                         replicated.buffer().begin()));
  BinaryReader reader(unreplicated.buffer());
  EXPECT_TRUE(FileRecordReply::Decode(reader).value().record.replicas.empty());
}

TEST(MetaWireReplication, CreateFileRequestTruncatedDomainListRejected) {
  // The failure-domain count must be backed by the body: a list cut short
  // is truncated input.
  CreateFileRequest request;
  request.meta = MakeArrayMeta();
  request.hints.replication.factor = 2;
  request.hints.replication.domains = {0, 1};
  BinaryWriter writer;
  request.Encode(writer);
  const Bytes body(writer.buffer().begin(), writer.buffer().end() - 4);
  BinaryReader reader(body);
  EXPECT_EQ(CreateFileRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(MetaWireReplication, FileRecordReplyReplicasRoundTrip) {
  FileRecordReply reply;
  reply.record.meta = MakeArrayMeta();
  reply.record.servers = {MakeServer("s0", 10), MakeServer("s1", 11)};
  reply.record.distribution =
      layout::BrickDistribution::FromBrickLists(4, {{0, 2}, {1, 3}}).value();
  reply.record.replicas = {
      layout::BrickDistribution::FromBrickLists(4, {{1, 3}, {0, 2}}).value()};
  BinaryWriter writer;
  reply.Encode(writer);
  BinaryReader reader(writer.buffer());
  const FileRecordReply decoded = FileRecordReply::Decode(reader).value();
  EXPECT_EQ(decoded.record.replication(), 2u);
  ASSERT_EQ(decoded.record.replicas.size(), 1u);
  EXPECT_EQ(decoded.record.replicas[0].bricks_on(0),
            (std::vector<layout::BrickId>{1, 3}));
  EXPECT_EQ(decoded.record.replicas[0].bricks_on(1),
            (std::vector<layout::BrickId>{0, 2}));
}

TEST(MetaWireRobustness, TruncatedBodiesNeverCrash) {
  // Encode one of everything, then decode every strict prefix: each must
  // return an error (or, for a lucky prefix boundary, a valid value) and
  // never read past the buffer. ASan runs of this test are the real check.
  std::vector<Bytes> bodies;
  {
    BinaryWriter w;
    ServerRequest r;
    r.server = MakeServer("srv", 7);
    r.Encode(w);
    bodies.push_back(w.buffer());
  }
  {
    BinaryWriter w;
    CreateFileRequest r;
    r.meta = MakeArrayMeta();
    r.hints.replication.factor = 2;
    r.hints.replication.domains = {0, 1};
    r.Encode(w);
    bodies.push_back(w.buffer());
  }
  {
    BinaryWriter w;
    FileRecordReply r;
    r.record.meta = MakeArrayMeta();
    r.record.servers = {MakeServer("s0", 10)};
    r.record.distribution =
        layout::BrickDistribution::FromBrickLists(2, {{0, 1}}).value();
    r.record.replicas = {
        layout::BrickDistribution::FromBrickLists(2, {{0, 1}}).value()};
    r.Encode(w);
    bodies.push_back(w.buffer());
  }
  for (const Bytes& body : bodies) {
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
      const Bytes prefix(body.begin(),
                         body.begin() + static_cast<std::ptrdiff_t>(cut));
      BinaryReader reader(prefix);
      // Try all three decoders; none may crash on any prefix.
      (void)ServerRequest::Decode(reader);
      BinaryReader reader2(prefix);
      (void)CreateFileRequest::Decode(reader2);
      BinaryReader reader3(prefix);
      (void)FileRecordReply::Decode(reader3);
    }
  }
}

}  // namespace
}  // namespace dpfs::client::meta_wire
