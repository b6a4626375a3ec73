// MetadataService over the wire: speaks the kMeta* opcodes to a dpfs-metad
// process (extension: `metadata_endpoint`; docs/METADATA_SCHEMA.md "Remote
// access").
//
// Connection model: a ConnectionPool (client/conn_pool.h), the one way a
// client holds a daemon connection. Each RPC checks a connection out, so
// concurrent callers get their own streams, and the pool's staleness probe
// replaces an idle connection whose metad restarted (conn_pool.redials).
// A kUnavailable outcome poisons its connection and surfaces to the
// caller; the next call dials afresh, so a restarted metad is picked up
// transparently.
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
#include <string>
#include <vector>

#include "client/conn_pool.h"
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
  Status RemoveDirectory(const std::string& path) override;
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

  /// One RPC on a pooled connection. A kUnavailable outcome poisons the
  /// connection, so the next call dials afresh.
  Result<net::ReplyFrame> Call(net::MessageType type, ByteSpan body);

  net::Endpoint endpoint_;
  RemoteMetadataOptions options_;
  ConnectionPool pool_;

  struct CacheEntry {
    FileRecord record;
    std::chrono::steady_clock::time_point expires;
  };
  Mutex cache_mu_;
  std::map<std::string, CacheEntry> cache_ DPFS_GUARDED_BY(cache_mu_);
};

}  // namespace dpfs::client
