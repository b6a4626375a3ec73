#include "client/remote_metadata.h"

#include <utility>

#include "client/meta_wire.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "layout/placement.h"
#include "net/messages.h"

namespace dpfs::client {

namespace {

// The process-wide hit/miss pair of the client's one record cache, summed
// over every RemoteMetadataManager.
struct CacheMetricsT {
  metrics::Counter& hits = metrics::GetCounter("client.metadata_cache.hits");
  metrics::Counter& misses =
      metrics::GetCounter("client.metadata_cache.misses");
};
CacheMetricsT& CacheMetrics() {
  static CacheMetricsT m;
  return m;
}

}  // namespace

Result<std::unique_ptr<RemoteMetadataManager>> RemoteMetadataManager::Connect(
    const net::Endpoint& endpoint, RemoteMetadataOptions options) {
  std::unique_ptr<RemoteMetadataManager> manager(
      new RemoteMetadataManager(endpoint, options));
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

Status RemoteMetadataManager::CreateFile(
    const FileMeta& meta, const std::vector<std::string>& server_names,
    const layout::BrickDistribution& distribution,
    const std::vector<layout::BrickDistribution>& replicas) {
  meta_wire::CreateFileRequest request;
  request.meta = meta;
  request.server_names = server_names;
  request.bricklists.reserve(distribution.num_servers());
  for (std::uint32_t i = 0; i < distribution.num_servers(); ++i) {
    request.bricklists.push_back(
        layout::BrickDistribution::EncodeBrickList(distribution.bricks_on(i)));
  }
  request.replica_bricklists.reserve(replicas.size());
  for (const layout::BrickDistribution& rank : replicas) {
    std::vector<std::string> lists;
    lists.reserve(rank.num_servers());
    for (std::uint32_t i = 0; i < rank.num_servers(); ++i) {
      lists.push_back(
          layout::BrickDistribution::EncodeBrickList(rank.bricks_on(i)));
    }
    request.replica_bricklists.push_back(std::move(lists));
  }
  BinaryWriter body;
  request.Encode(body);
  const Status created =
      Call(net::MessageType::kMetaCreateFile, body.buffer()).status();
  // Invalidate even on failure: a lost reply may have committed server-side.
  InvalidateCache(meta.path);
  return created;
}

Result<FileRecord> RemoteMetadataManager::LookupFile(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (options_.cache_ttl.count() > 0) {
    MutexLock lock(cache_mu_);
    const auto it = cache_.find(normalized);
    if (it != cache_.end() &&
        std::chrono::steady_clock::now() < it->second.expires) {
      CacheMetrics().hits.Add();
      return it->second.record;
    }
    CacheMetrics().misses.Add();
  }
  meta_wire::PathRequest request;
  request.path = normalized;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(
      const net::ReplyFrame reply,
      Call(net::MessageType::kMetaLookupFile, body.buffer()));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(meta_wire::FileRecordReply decoded,
                        meta_wire::FileRecordReply::Decode(reader));
  if (options_.cache_ttl.count() > 0) {
    MutexLock lock(cache_mu_);
    cache_[normalized] = CacheEntry{
        decoded.record, std::chrono::steady_clock::now() + options_.cache_ttl};
  }
  return std::move(decoded.record);
}

Status RemoteMetadataManager::SetPermission(const std::string& path,
                                            std::uint32_t permission) {
  meta_wire::SetPermissionRequest request;
  request.path = path;
  request.permission = permission;
  BinaryWriter body;
  request.Encode(body);
  const Status set =
      Call(net::MessageType::kMetaSetPermission, body.buffer()).status();
  InvalidateCache(path);
  return set;
}

Status RemoteMetadataManager::SetOwner(const std::string& path,
                                       const std::string& owner) {
  meta_wire::SetOwnerRequest request;
  request.path = path;
  request.owner = owner;
  BinaryWriter body;
  request.Encode(body);
  const Status set =
      Call(net::MessageType::kMetaSetOwner, body.buffer()).status();
  InvalidateCache(path);
  return set;
}

Result<FileRecord> RemoteMetadataManager::DeleteFile(
    const std::string& path) {
  meta_wire::PathRequest request;
  request.path = path;
  BinaryWriter body;
  request.Encode(body);
  const Result<net::ReplyFrame> reply =
      Call(net::MessageType::kMetaDeleteFile, body.buffer());
  InvalidateCache(path);
  DPFS_RETURN_IF_ERROR(reply.status());
  BinaryReader reader(reply.value().body());
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
  const Status renamed =
      Call(net::MessageType::kMetaRenameFile, body.buffer()).status();
  InvalidateCache(from);
  InvalidateCache(to);
  return renamed;
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

// --- cache -----------------------------------------------------------------

void RemoteMetadataManager::InvalidateCache() {
  MutexLock lock(cache_mu_);
  cache_.clear();
}

void RemoteMetadataManager::InvalidateCache(const std::string& path) {
  const Result<std::string> normalized = NormalizePath(path);
  if (!normalized.ok()) return;
  MutexLock lock(cache_mu_);
  cache_.erase(normalized.value());
}

}  // namespace dpfs::client
