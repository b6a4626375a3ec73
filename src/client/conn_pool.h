// Thread-safe pool of server connections: one holds a FileSystem's I/O
// server connections for all its file handles, and one a
// RemoteMetadataManager's metad connections. Each "compute node" thread
// checks a connection out per request burst and returns it, so concurrent
// clients get independent TCP streams (the paper's servers handle each
// connection in its own thread).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/connection.h"

namespace dpfs::client {

class ConnectionPool;

/// RAII lease on a pooled connection; returns it on destruction. The
/// connection is dropped (not returned) if marked poisoned — e.g. after a
/// transport error left the stream mid-message.
class PooledConnection {
 public:
  PooledConnection(PooledConnection&&) noexcept = default;
  PooledConnection& operator=(PooledConnection&&) noexcept = delete;
  ~PooledConnection();

  net::ServerConnection& operator*() noexcept { return *conn_; }
  net::ServerConnection* operator->() noexcept { return conn_.get(); }

  /// Marks the connection as unusable; it will not be pooled again.
  void Poison() noexcept { poisoned_ = true; }

 private:
  friend class ConnectionPool;
  PooledConnection(ConnectionPool* pool,
                   std::unique_ptr<net::ServerConnection> conn)
      : pool_(pool), conn_(std::move(conn)) {}

  ConnectionPool* pool_;
  std::unique_ptr<net::ServerConnection> conn_;
  bool poisoned_ = false;
};

class ConnectionPool {
 public:
  ConnectionPool() = default;
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Checks out an idle connection to `endpoint`, dialing a new one if none
  /// is pooled. An idle connection whose peer has closed (the server
  /// restarted) is dropped and counted in `conn_pool.redials`: nothing was
  /// sent on it, so replacing it is always safe, unlike a reply-path
  /// failure whose fate-unknown outcome must surface to the caller.
  Result<PooledConnection> Acquire(const net::Endpoint& endpoint);

  /// Drops all idle connections.
  void Clear();

  [[nodiscard]] std::size_t idle_count() const;

 private:
  friend class PooledConnection;
  void Release(std::unique_ptr<net::ServerConnection> conn);

  mutable Mutex mu_;
  std::map<std::pair<std::string, std::uint16_t>,
           std::vector<std::unique_ptr<net::ServerConnection>>>
      idle_ DPFS_GUARDED_BY(mu_);
};

}  // namespace dpfs::client
