#include "client/meta_wire.h"

#include "layout/placement.h"

namespace dpfs::client::meta_wire {

namespace {

void EncodeShape(const layout::Shape& shape, BinaryWriter& writer) {
  writer.WriteU32(static_cast<std::uint32_t>(shape.size()));
  for (const std::uint64_t dim : shape) writer.WriteU64(dim);
}

Result<layout::Shape> DecodeShape(BinaryReader& reader) {
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  layout::Shape shape;
  for (std::uint32_t i = 0; i < count; ++i) {
    DPFS_ASSIGN_OR_RETURN(const std::uint64_t dim, reader.ReadU64());
    shape.push_back(dim);
  }
  return shape;
}

void EncodeStrings(const std::vector<std::string>& strings,
                   BinaryWriter& writer) {
  writer.WriteU32(static_cast<std::uint32_t>(strings.size()));
  for (const std::string& s : strings) writer.WriteString(s);
}

Result<std::vector<std::string>> DecodeStrings(BinaryReader& reader) {
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  std::vector<std::string> strings;
  for (std::uint32_t i = 0; i < count; ++i) {
    DPFS_ASSIGN_OR_RETURN(std::string s, reader.ReadString());
    strings.push_back(std::move(s));
  }
  return strings;
}

}  // namespace

void EncodeServerInfo(const ServerInfo& info, BinaryWriter& writer) {
  writer.WriteString(info.name);
  writer.WriteString(info.endpoint.host);
  writer.WriteU16(info.endpoint.port);
  writer.WriteU64(info.capacity_bytes);
  writer.WriteU32(info.performance);
}

Result<ServerInfo> DecodeServerInfo(BinaryReader& reader) {
  ServerInfo info;
  DPFS_ASSIGN_OR_RETURN(info.name, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(info.endpoint.host, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(info.endpoint.port, reader.ReadU16());
  DPFS_ASSIGN_OR_RETURN(info.capacity_bytes, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(info.performance, reader.ReadU32());
  return info;
}

void EncodeFileMeta(const FileMeta& meta, BinaryWriter& writer) {
  writer.WriteString(meta.path);
  writer.WriteString(meta.subfile);
  writer.WriteString(meta.owner);
  writer.WriteU32(meta.permission);
  writer.WriteU64(meta.size_bytes);
  writer.WriteU8(static_cast<std::uint8_t>(meta.level));
  writer.WriteU64(meta.element_size);
  EncodeShape(meta.array_shape, writer);
  writer.WriteU64(meta.brick_bytes);
  EncodeShape(meta.brick_shape, writer);
  writer.WriteBool(meta.pattern.has_value());
  if (meta.pattern.has_value()) writer.WriteString(meta.pattern->ToString());
  EncodeShape(meta.chunk_grid, writer);
}

Result<FileMeta> DecodeFileMeta(BinaryReader& reader) {
  FileMeta meta;
  DPFS_ASSIGN_OR_RETURN(meta.path, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(meta.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(meta.owner, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(meta.permission, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(meta.size_bytes, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t level, reader.ReadU8());
  if (level > static_cast<std::uint8_t>(layout::FileLevel::kArray)) {
    return ProtocolError("bad file level " + std::to_string(level));
  }
  meta.level = static_cast<layout::FileLevel>(level);
  DPFS_ASSIGN_OR_RETURN(meta.element_size, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(meta.array_shape, DecodeShape(reader));
  DPFS_ASSIGN_OR_RETURN(meta.brick_bytes, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(meta.brick_shape, DecodeShape(reader));
  DPFS_ASSIGN_OR_RETURN(const bool has_pattern, reader.ReadBool());
  if (has_pattern) {
    DPFS_ASSIGN_OR_RETURN(const std::string text, reader.ReadString());
    DPFS_ASSIGN_OR_RETURN(meta.pattern, layout::HpfPattern::Parse(text));
  }
  DPFS_ASSIGN_OR_RETURN(meta.chunk_grid, DecodeShape(reader));
  return meta;
}

void ServerRequest::Encode(BinaryWriter& writer) const {
  EncodeServerInfo(server, writer);
}

Result<ServerRequest> ServerRequest::Decode(BinaryReader& reader) {
  ServerRequest request;
  DPFS_ASSIGN_OR_RETURN(request.server, DecodeServerInfo(reader));
  return request;
}

void NameRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(name);
}

Result<NameRequest> NameRequest::Decode(BinaryReader& reader) {
  NameRequest request;
  DPFS_ASSIGN_OR_RETURN(request.name, reader.ReadString());
  return request;
}

void PathRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(path);
}

Result<PathRequest> PathRequest::Decode(BinaryReader& reader) {
  PathRequest request;
  DPFS_ASSIGN_OR_RETURN(request.path, reader.ReadString());
  return request;
}

void CreateFileRequest::Encode(BinaryWriter& writer) const {
  EncodeFileMeta(meta, writer);
  writer.WriteU8(static_cast<std::uint8_t>(hints.policy));
  writer.WriteU32(hints.suggested_io_nodes);
  writer.WriteU32(hints.replication.factor);
  writer.WriteU32(static_cast<std::uint32_t>(hints.replication.domains.size()));
  for (const std::uint32_t domain : hints.replication.domains) {
    writer.WriteU32(domain);
  }
}

Result<CreateFileRequest> CreateFileRequest::Decode(BinaryReader& reader) {
  CreateFileRequest request;
  DPFS_ASSIGN_OR_RETURN(request.meta, DecodeFileMeta(reader));
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t policy, reader.ReadU8());
  if (policy > static_cast<std::uint8_t>(
                   layout::PlacementPolicy::kCapacityAware)) {
    return ProtocolError("bad placement policy " + std::to_string(policy));
  }
  request.hints.policy = static_cast<layout::PlacementPolicy>(policy);
  DPFS_ASSIGN_OR_RETURN(request.hints.suggested_io_nodes, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(request.hints.replication.factor, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t domains, reader.ReadU32());
  for (std::uint32_t i = 0; i < domains; ++i) {
    DPFS_ASSIGN_OR_RETURN(const std::uint32_t domain, reader.ReadU32());
    request.hints.replication.domains.push_back(domain);
  }
  return request;
}

void SetPermissionRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(path);
  writer.WriteU32(permission);
}

Result<SetPermissionRequest> SetPermissionRequest::Decode(
    BinaryReader& reader) {
  SetPermissionRequest request;
  DPFS_ASSIGN_OR_RETURN(request.path, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.permission, reader.ReadU32());
  return request;
}

void SetOwnerRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(path);
  writer.WriteString(owner);
}

Result<SetOwnerRequest> SetOwnerRequest::Decode(BinaryReader& reader) {
  SetOwnerRequest request;
  DPFS_ASSIGN_OR_RETURN(request.path, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.owner, reader.ReadString());
  return request;
}

void RenameRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(from);
  writer.WriteString(to);
}

Result<RenameRequest> RenameRequest::Decode(BinaryReader& reader) {
  RenameRequest request;
  DPFS_ASSIGN_OR_RETURN(request.from, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.to, reader.ReadString());
  return request;
}

void ServerListReply::Encode(BinaryWriter& writer) const {
  writer.WriteU32(static_cast<std::uint32_t>(servers.size()));
  for (const ServerInfo& server : servers) EncodeServerInfo(server, writer);
}

Result<ServerListReply> ServerListReply::Decode(BinaryReader& reader) {
  ServerListReply reply;
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  for (std::uint32_t i = 0; i < count; ++i) {
    DPFS_ASSIGN_OR_RETURN(ServerInfo server, DecodeServerInfo(reader));
    reply.servers.push_back(std::move(server));
  }
  return reply;
}

void FileRecordReply::Encode(BinaryWriter& writer) const {
  EncodeFileMeta(record.meta, writer);
  writer.WriteU32(static_cast<std::uint32_t>(record.servers.size()));
  for (const ServerInfo& server : record.servers) {
    EncodeServerInfo(server, writer);
  }
  writer.WriteU64(record.distribution.num_bricks());
  const std::uint32_t num_servers = record.distribution.num_servers();
  writer.WriteU32(num_servers);
  for (std::uint32_t i = 0; i < num_servers; ++i) {
    writer.WriteString(layout::BrickDistribution::EncodeBrickList(
        record.distribution.bricks_on(i)));
  }
  // Trailing replica section (ranks 1..R-1), omitted for R=1 records so
  // their frames stay byte-identical to the pre-replication format.
  if (!record.replicas.empty()) {
    writer.WriteU32(static_cast<std::uint32_t>(record.replicas.size()));
    for (const layout::BrickDistribution& rank : record.replicas) {
      for (std::uint32_t i = 0; i < rank.num_servers(); ++i) {
        writer.WriteString(
            layout::BrickDistribution::EncodeBrickList(rank.bricks_on(i)));
      }
    }
  }
}

Result<FileRecordReply> FileRecordReply::Decode(BinaryReader& reader) {
  FileRecordReply reply;
  DPFS_ASSIGN_OR_RETURN(reply.record.meta, DecodeFileMeta(reader));
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t server_count, reader.ReadU32());
  for (std::uint32_t i = 0; i < server_count; ++i) {
    DPFS_ASSIGN_OR_RETURN(ServerInfo server, DecodeServerInfo(reader));
    reply.record.servers.push_back(std::move(server));
  }
  DPFS_ASSIGN_OR_RETURN(const std::uint64_t num_bricks, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t list_count, reader.ReadU32());
  std::vector<std::vector<layout::BrickId>> bricklists;
  for (std::uint32_t i = 0; i < list_count; ++i) {
    DPFS_ASSIGN_OR_RETURN(const std::string text, reader.ReadString());
    DPFS_ASSIGN_OR_RETURN(std::vector<layout::BrickId> bricks,
                          layout::BrickDistribution::DecodeBrickList(text));
    bricklists.push_back(std::move(bricks));
  }
  DPFS_ASSIGN_OR_RETURN(
      reply.record.distribution,
      layout::BrickDistribution::FromBrickLists(num_bricks,
                                                std::move(bricklists)));
  if (!reader.AtEnd()) {
    DPFS_ASSIGN_OR_RETURN(const std::uint32_t ranks, reader.ReadU32());
    for (std::uint32_t r = 0; r < ranks; ++r) {
      std::vector<std::vector<layout::BrickId>> rank_lists;
      for (std::uint32_t i = 0; i < list_count; ++i) {
        DPFS_ASSIGN_OR_RETURN(const std::string text, reader.ReadString());
        DPFS_ASSIGN_OR_RETURN(
            std::vector<layout::BrickId> bricks,
            layout::BrickDistribution::DecodeBrickList(text));
        rank_lists.push_back(std::move(bricks));
      }
      DPFS_ASSIGN_OR_RETURN(layout::BrickDistribution rank_dist,
                            layout::BrickDistribution::FromBrickLists(
                                num_bricks, std::move(rank_lists)));
      reply.record.replicas.push_back(std::move(rank_dist));
    }
  }
  return reply;
}

void BoolReply::Encode(BinaryWriter& writer) const { writer.WriteBool(value); }

Result<BoolReply> BoolReply::Decode(BinaryReader& reader) {
  BoolReply reply;
  DPFS_ASSIGN_OR_RETURN(reply.value, reader.ReadBool());
  return reply;
}

void ListingReply::Encode(BinaryWriter& writer) const {
  EncodeStrings(listing.directories, writer);
  EncodeStrings(listing.files, writer);
}

Result<ListingReply> ListingReply::Decode(BinaryReader& reader) {
  ListingReply reply;
  DPFS_ASSIGN_OR_RETURN(reply.listing.directories, DecodeStrings(reader));
  DPFS_ASSIGN_OR_RETURN(reply.listing.files, DecodeStrings(reader));
  return reply;
}

}  // namespace dpfs::client::meta_wire
