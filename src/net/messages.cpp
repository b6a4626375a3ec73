#include "net/messages.h"

namespace dpfs::net {

std::string_view MessageTypeName(MessageType type) noexcept {
  switch (type) {
    case MessageType::kPing: return "ping";
    case MessageType::kRead: return "read";
    case MessageType::kWrite: return "write";
    case MessageType::kDelete: return "delete";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kList: return "list";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kMetaRegisterServer: return "meta_register_server";
    case MessageType::kMetaUnregisterServer: return "meta_unregister_server";
    case MessageType::kMetaListServers: return "meta_list_servers";
    case MessageType::kMetaLookupServer: return "meta_lookup_server";
    case MessageType::kMetaCreateFile: return "meta_create_file";
    case MessageType::kMetaLookupFile: return "meta_lookup_file";
    case MessageType::kMetaUpdateSize: return "meta_update_size";
    case MessageType::kMetaSetPermission: return "meta_set_permission";
    case MessageType::kMetaSetOwner: return "meta_set_owner";
    case MessageType::kMetaDeleteFile: return "meta_delete_file";
    case MessageType::kMetaFileExists: return "meta_file_exists";
    case MessageType::kMetaRenameFile: return "meta_rename_file";
    case MessageType::kMetaMakeDirectory: return "meta_make_directory";
    case MessageType::kMetaRemoveDirectory: return "meta_remove_directory";
    case MessageType::kMetaDirectoryExists: return "meta_directory_exists";
    case MessageType::kMetaListDirectory: return "meta_list_directory";
    case MessageType::kListRead: return "list_read";
    case MessageType::kListWrite: return "list_write";
  }
  return "unknown";
}

std::uint64_t ReadRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& fragment : fragments) total += fragment.length;
  return total;
}

void ReadRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  writer.WriteU32(static_cast<std::uint32_t>(fragments.size()));
  for (const ReadFragment& fragment : fragments) {
    writer.WriteU64(fragment.offset);
    writer.WriteU64(fragment.length);
  }
}

Result<ReadRequest> ReadRequest::Decode(BinaryReader& reader) {
  ReadRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  request.fragments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ReadFragment fragment;
    DPFS_ASSIGN_OR_RETURN(fragment.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(fragment.length, reader.ReadU64());
    request.fragments.push_back(fragment);
  }
  return request;
}

std::uint64_t WriteRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const WriteFragment& fragment : fragments) total += fragment.data.size();
  return total;
}

void WriteRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  writer.WriteBool(sync);
  writer.WriteU32(static_cast<std::uint32_t>(fragments.size()));
  for (const WriteFragment& fragment : fragments) {
    writer.WriteU64(fragment.offset);
    writer.WriteBytes(fragment.data);
  }
}

Result<WriteRequest> WriteRequest::Decode(BinaryReader& reader) {
  WriteRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.sync, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  request.fragments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WriteFragment fragment;
    DPFS_ASSIGN_OR_RETURN(fragment.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(const ByteSpan data, reader.ReadBytes());
    fragment.data.assign(data.begin(), data.end());
    request.fragments.push_back(std::move(fragment));
  }
  return request;
}

namespace {

void EncodeListExtents(BinaryWriter& writer,
                       const std::vector<ReadFragment>& extents) {
  writer.WriteU32(static_cast<std::uint32_t>(extents.size()));
  for (const ReadFragment& extent : extents) {
    writer.WriteU64(extent.offset);
    writer.WriteU64(extent.length);
  }
}

/// Shared decode + rejection rules for both list opcodes
/// (docs/WIRE_PROTOCOL.md "List I/O"): at least one extent, every extent
/// non-empty and non-overflowing, offsets strictly ascending with no
/// overlap. The count is checked against the remaining body before any
/// allocation, so a truncated or lying header cannot reserve gigabytes.
Result<std::vector<ReadFragment>> DecodeListExtents(BinaryReader& reader) {
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  if (count == 0) {
    return ProtocolError("list request carries no extents");
  }
  if (count > reader.remaining() / 16) {
    return ProtocolError("list extent count " + std::to_string(count) +
                         " exceeds the request body");
  }
  std::vector<ReadFragment> extents;
  extents.reserve(count);
  std::uint64_t prev_end = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    ReadFragment extent;
    DPFS_ASSIGN_OR_RETURN(extent.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(extent.length, reader.ReadU64());
    if (extent.length == 0) {
      return ProtocolError("list extent has zero length");
    }
    if (extent.length > ~std::uint64_t{0} - extent.offset) {
      return ProtocolError("list extent overflows the subfile offset space");
    }
    if (i > 0 && extent.offset < prev_end) {
      return ProtocolError(
          "list extents must be ascending and non-overlapping");
    }
    prev_end = extent.offset + extent.length;
    extents.push_back(extent);
  }
  return extents;
}

}  // namespace

std::uint64_t ListReadRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& extent : extents) total += extent.length;
  return total;
}

void ListReadRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  EncodeListExtents(writer, extents);
}

Result<ListReadRequest> ListReadRequest::Decode(BinaryReader& reader) {
  ListReadRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.extents, DecodeListExtents(reader));
  return request;
}

std::uint64_t ListWriteRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& extent : extents) total += extent.length;
  return total;
}

void ListWriteRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  writer.WriteBool(sync);
  EncodeListExtents(writer, extents);
  writer.WriteBytes(data);
}

Result<ListWriteRequest> ListWriteRequest::Decode(BinaryReader& reader) {
  ListWriteRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.sync, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(request.extents, DecodeListExtents(reader));
  DPFS_ASSIGN_OR_RETURN(const ByteSpan payload, reader.ReadBytes());
  const std::uint64_t expected = request.total_bytes();
  if (payload.size() != expected) {
    return ProtocolError("list write payload carries " +
                         std::to_string(payload.size()) + " bytes for " +
                         std::to_string(expected) + " bytes of extents");
  }
  request.data.assign(payload.begin(), payload.end());
  return request;
}

Bytes EncodeRequest(MessageType type, ByteSpan body) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(type));
  writer.WriteRaw(body);
  return std::move(writer).TakeBuffer();
}

Bytes EncodeReply(const Status& status, ByteSpan body) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(status.code()));
  writer.WriteString(status.message());
  writer.WriteRaw(body);
  return std::move(writer).TakeBuffer();
}

Result<DecodedRequest> DecodeRequest(ByteSpan payload) {
  BinaryReader reader(payload);
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t type, reader.ReadU8());
  if (type < 1 || type > kMaxMessageType ||
      MessageTypeName(static_cast<MessageType>(type)) == "unknown") {
    return ProtocolError("bad message type " + std::to_string(type));
  }
  return DecodedRequest{static_cast<MessageType>(type),
                        payload.subspan(reader.position())};
}

Result<DecodedReply> DecodeReply(ByteSpan payload) {
  BinaryReader reader(payload);
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t code, reader.ReadU8());
  DPFS_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  return DecodedReply{Status(static_cast<StatusCode>(code), std::move(message)),
                      payload.subspan(reader.position())};
}

}  // namespace dpfs::net
