#include "net/messages.h"

#include "net/frame.h"

namespace dpfs::net {

std::string_view MessageTypeName(MessageType type) noexcept {
  switch (type) {
    case MessageType::kPing: return "ping";
    case MessageType::kRead: return "read";
    case MessageType::kWrite: return "write";
    case MessageType::kDelete: return "delete";
    case MessageType::kList: return "list";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kMetaRegisterServer: return "meta_register_server";
    case MessageType::kMetaUnregisterServer: return "meta_unregister_server";
    case MessageType::kMetaListServers: return "meta_list_servers";
    case MessageType::kMetaCreateFile: return "meta_create_file";
    case MessageType::kMetaLookupFile: return "meta_lookup_file";
    case MessageType::kMetaSetPermission: return "meta_set_permission";
    case MessageType::kMetaSetOwner: return "meta_set_owner";
    case MessageType::kMetaDeleteFile: return "meta_delete_file";
    case MessageType::kMetaFileExists: return "meta_file_exists";
    case MessageType::kMetaRenameFile: return "meta_rename_file";
    case MessageType::kMetaMakeDirectory: return "meta_make_directory";
    case MessageType::kMetaRemoveDirectory: return "meta_remove_directory";
    case MessageType::kMetaDirectoryExists: return "meta_directory_exists";
    case MessageType::kMetaListDirectory: return "meta_list_directory";
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
  // No reserve(count): a count the body cannot back runs out of bytes in
  // the loop, so the work stays bounded by what was received.
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  // The reply carries every requested byte in one frame, after the ok
  // envelope ([u8 code][u32 empty message]). Checked per fragment, so the
  // running sum cannot wrap.
  constexpr std::uint64_t kMaxReplyBytes = kMaxFrameBytes - 5;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    ReadFragment fragment;
    DPFS_ASSIGN_OR_RETURN(fragment.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(fragment.length, reader.ReadU64());
    if (fragment.length > kMaxReplyBytes - total) {
      return ProtocolError("read asks for more than the " +
                           std::to_string(kMaxReplyBytes) +
                           " bytes one reply frame carries");
    }
    total += fragment.length;
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
  const std::size_t count_at = writer.size();
  writer.WriteU32(0);  // the fragment count, patched below
  std::uint32_t count = 0;
  std::size_t length_at = 0;  // the open fragment's length field
  std::uint64_t end = 0;      // the subfile offset the open fragment ends at
  for (const WriteFragment& fragment : fragments) {
    if (count == 0 || fragment.offset != end) {
      writer.WriteU64(fragment.offset);
      length_at = writer.size();
      writer.WriteU32(0);
      ++count;
    }
    writer.WriteRaw(fragment.data);
    writer.PatchU32(length_at, static_cast<std::uint32_t>(
                                   writer.size() - length_at - 4));
    end = fragment.offset + fragment.data.size();
  }
  writer.PatchU32(count_at, count);
}

Result<WriteRequest> WriteRequest::Decode(BinaryReader& reader) {
  WriteRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.sync, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  for (std::uint32_t i = 0; i < count; ++i) {
    DPFS_ASSIGN_OR_RETURN(const std::uint64_t offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(const ByteSpan data, reader.ReadBytes());
    request.fragments.emplace_back(offset, data);
  }
  return request;
}

Bytes EncodeReply(const Status& status) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(status.code()));
  writer.WriteString(status.message());
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
