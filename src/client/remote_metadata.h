// MetadataService over the wire: speaks the kMeta* opcodes to a dpfs-metad
// process (the dpfs-metad extension; docs/METADATA_SCHEMA.md "Remote
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
// No caching: every call is one round trip, and the metad answers it from
// the database at call time, as embedded metadata does. So one client's
// committed mutation is what every other client's next call sees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/conn_pool.h"
#include "client/metadata_service.h"
#include "common/status.h"
#include "net/connection.h"

namespace dpfs::client {

class RemoteMetadataManager final : public MetadataService {
 public:
  /// Dials the metadata server and verifies it answers a ping — connect
  /// failures surface here, not on the first namespace operation.
  static Result<std::unique_ptr<RemoteMetadataManager>> Connect(
      const net::Endpoint& endpoint);

  Status RegisterServer(const ServerInfo& server) override;
  Status UnregisterServer(const std::string& name) override;
  Result<std::vector<ServerInfo>> ListServers() override;

  Result<FileRecord> CreateFile(const FileMeta& meta,
                                const PlacementHints& hints) override;
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

  [[nodiscard]] const net::Endpoint& endpoint() const noexcept {
    return endpoint_;
  }

 private:
  explicit RemoteMetadataManager(net::Endpoint endpoint)
      : endpoint_(std::move(endpoint)) {}

  /// One RPC on a pooled connection. A kUnavailable outcome poisons the
  /// connection, so the next call dials afresh.
  Result<net::ReplyFrame> Call(net::MessageType type, ByteSpan body);

  net::Endpoint endpoint_;
  ConnectionPool pool_;
};

}  // namespace dpfs::client
