// MetadataService over the wire: speaks the kMeta* opcodes to a dpfs-metad
// process (extension: `metadata_endpoint`; docs/METADATA_SCHEMA.md "Remote
// access").
//
// Connection model: one lazily-(re)dialed connection, serialized by a
// mutex — metadata operations are small and infrequent next to data I/O,
// so one in-flight RPC at a time keeps the failure model simple. A
// transport failure abandons the connection and surfaces kUnavailable;
// the next call redials, so a restarted metad is picked up transparently.
//
// Caching: LookupFile results are cached with a TTL and invalidated by this
// manager's own mutations (create/delete/rename/resize/chmod/chown). Writes
// from *other* clients surface after at most cache_ttl — the staleness
// window the conformance suite pins. This is the client's only record
// cache: embedded metadata reads the database on every lookup. Hits and
// misses feed client.metadata_cache.hits/misses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/metadata_service.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/connection.h"

namespace dpfs::client {

struct RemoteMetadataOptions {
  /// How long a cached LookupFile record may serve before re-fetching.
  /// Zero disables the cache: every lookup goes to the wire (strongest
  /// consistency, highest latency).
  std::chrono::milliseconds cache_ttl{250};
};

class RemoteMetadataManager final : public MetadataService {
 public:
  /// Dials the metadata server and verifies it answers a ping — connect
  /// failures surface here, not on the first namespace operation.
  static Result<std::unique_ptr<RemoteMetadataManager>> Connect(
      const net::Endpoint& endpoint, RemoteMetadataOptions options = {});

  Status RegisterServer(const ServerInfo& server) override;
  Status UnregisterServer(const std::string& name) override;
  Result<std::vector<ServerInfo>> ListServers() override;

  Status CreateFile(
      const FileMeta& meta, const std::vector<std::string>& server_names,
      const layout::BrickDistribution& distribution,
      const std::vector<layout::BrickDistribution>& replicas = {}) override;
  Result<FileRecord> LookupFile(const std::string& path) override;
  Status SetPermission(const std::string& path,
                       std::uint32_t permission) override;
  Status SetOwner(const std::string& path, const std::string& owner) override;
  Result<FileRecord> DeleteFile(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  Status MakeDirectory(const std::string& path) override;
  Status RemoveDirectory(const std::string& path, bool recursive) override;
  Result<bool> DirectoryExists(const std::string& path) override;
  Result<Listing> ListDirectory(const std::string& path) override;

  /// The metad process's full metrics text snapshot (kMetrics passthrough).
  Result<std::string> FetchMetrics();
  Status Ping();

  /// Drops every cached file record (or one path's) — for out-of-band
  /// events such as a metad restart (LocalCluster::RestartMetad).
  void InvalidateCache();
  void InvalidateCache(const std::string& path);

  [[nodiscard]] const net::Endpoint& endpoint() const noexcept {
    return endpoint_;
  }

 private:
  RemoteMetadataManager(net::Endpoint endpoint, RemoteMetadataOptions options)
      : endpoint_(std::move(endpoint)), options_(options) {}

  /// One RPC: (re)dials if needed, sends, receives. On a transport-level
  /// failure the connection is abandoned so the next call redials.
  Result<net::ReplyFrame> Call(net::MessageType type, ByteSpan body);

  net::Endpoint endpoint_;
  RemoteMetadataOptions options_;

  Mutex conn_mu_;
  std::optional<net::ServerConnection> conn_ DPFS_GUARDED_BY(conn_mu_);

  struct CacheEntry {
    FileRecord record;
    std::chrono::steady_clock::time_point expires;
  };
  Mutex cache_mu_;
  std::map<std::string, CacheEntry> cache_ DPFS_GUARDED_BY(cache_mu_);
};

}  // namespace dpfs::client
