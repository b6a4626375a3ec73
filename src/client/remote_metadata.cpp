#include "client/remote_metadata.h"

#include <utility>

#include "client/meta_wire.h"
#include "net/messages.h"

namespace dpfs::client {

Result<std::unique_ptr<RemoteMetadataManager>> RemoteMetadataManager::Connect(
    const net::Endpoint& endpoint) {
  std::unique_ptr<RemoteMetadataManager> manager(
      new RemoteMetadataManager(endpoint));
  DPFS_RETURN_IF_ERROR(
      manager->Ping().WithContext("connect to metadata server at " +
                                  endpoint.ToString()));
  return manager;
}

Result<net::ReplyFrame> RemoteMetadataManager::Call(net::MessageType type,
                                                    ByteSpan body) {
  DPFS_ASSIGN_OR_RETURN(PooledConnection conn, pool_.Acquire(endpoint_));
  Result<net::ReplyFrame> reply = conn->Call(type, body);
  if (!reply.ok() && reply.status().code() == StatusCode::kUnavailable) {
    // Transport failure (or a server refusing service): drop the
    // connection so the next operation dials afresh.
    conn.Poison();
  }
  return reply;
}

Status RemoteMetadataManager::Ping() {
  return Call(net::MessageType::kPing, {}).status();
}

Result<std::string> RemoteMetadataManager::FetchMetrics() {
  DPFS_ASSIGN_OR_RETURN(const net::ReplyFrame reply,
                        Call(net::MessageType::kMetrics, {}));
  BinaryReader reader(reply.body());
  return reader.ReadString();
}

// --- DPFS_SERVER -----------------------------------------------------------

Status RemoteMetadataManager::RegisterServer(const ServerInfo& server) {
  meta_wire::ServerRequest request;
  request.server = server;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaRegisterServer, body.buffer()).status();
}

Status RemoteMetadataManager::UnregisterServer(const std::string& name) {
  meta_wire::NameRequest request;
  request.name = name;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaUnregisterServer, body.buffer()).status();
}

Result<std::vector<ServerInfo>> RemoteMetadataManager::ListServers() {
  DPFS_ASSIGN_OR_RETURN(const net::ReplyFrame reply,
                        Call(net::MessageType::kMetaListServers, {}));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::ServerListReply decoded,
                        meta_wire::ServerListReply::Decode(reader));
  return std::move(decoded.servers);
}

// --- files -----------------------------------------------------------------

Result<FileRecord> RemoteMetadataManager::CreateFile(
    const FileMeta& meta, const PlacementHints& hints) {
  meta_wire::CreateFileRequest request;
  request.meta = meta;
  request.hints = hints;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaCreateFile, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::FileRecordReply decoded,
                        meta_wire::FileRecordReply::Decode(reader));
  return std::move(decoded.record);
}

Result<FileRecord> RemoteMetadataManager::LookupFile(const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaLookupFile, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::FileRecordReply decoded,
                        meta_wire::FileRecordReply::Decode(reader));
  return std::move(decoded.record);
}

Status RemoteMetadataManager::SetPermission(const std::string& path,
                                            std::uint32_t permission) {
  meta_wire::SetPermissionRequest request;
  request.path = path;
  request.permission = permission;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaSetPermission, body.buffer()).status();
}

Status RemoteMetadataManager::SetOwner(const std::string& path,
                                       const std::string& owner) {
  meta_wire::SetOwnerRequest request;
  request.path = path;
  request.owner = owner;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaSetOwner, body.buffer()).status();
}

Result<FileRecord> RemoteMetadataManager::DeleteFile(
    const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaDeleteFile, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::FileRecordReply decoded,
                        meta_wire::FileRecordReply::Decode(reader));
  return std::move(decoded.record);
}

Result<bool> RemoteMetadataManager::FileExists(const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaFileExists, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(const meta_wire::BoolReply decoded,
                        meta_wire::BoolReply::Decode(reader));
  return decoded.value;
}

Status RemoteMetadataManager::RenameFile(const std::string& from,
                                         const std::string& to) {
  meta_wire::RenameRequest request;
  request.from = from;
  request.to = to;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaRenameFile, body.buffer()).status();
}

// --- directories -----------------------------------------------------------

Status RemoteMetadataManager::MakeDirectory(const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaMakeDirectory, body.buffer()).status();
}

Status RemoteMetadataManager::RemoveDirectory(const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  return Call(net::MessageType::kMetaRemoveDirectory, body.buffer()).status();
}

Result<bool> RemoteMetadataManager::DirectoryExists(const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaDirectoryExists, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(const meta_wire::BoolReply decoded,
                        meta_wire::BoolReply::Decode(reader));
  return decoded.value;
}

Result<MetadataService::Listing> RemoteMetadataManager::ListDirectory(
    const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaListDirectory, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::ListingReply decoded,
                        meta_wire::ListingReply::Decode(reader));
  return std::move(decoded.listing);
}

}  // namespace dpfs::client
