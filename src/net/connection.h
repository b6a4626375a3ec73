// Client-side connection to one DPFS I/O server, with typed RPC wrappers
// around the wire protocol. One connection per client thread; instances are
// not thread-safe (DPFS clients open a connection per server, per thread).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs::net {

/// Where a DPFS server listens.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
  /// Parses "host:port" (the inverse of ToString); used by the tools'
  /// --metad flag.
  static Result<Endpoint> Parse(std::string_view text);
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

class ServerConnection {
 public:
  static Result<ServerConnection> Connect(const Endpoint& endpoint);

  ServerConnection(ServerConnection&&) noexcept = default;
  ServerConnection& operator=(ServerConnection&&) noexcept = default;

  /// Reads the fragments of `subfile`; returns their bytes concatenated in
  /// request order. Fragments past EOF read as zeroes (unwritten brick
  /// slots are holes in the sparse subfile).
  Result<Bytes> Read(const std::string& subfile,
                     const std::vector<ReadFragment>& fragments);

  /// Writes all fragments; `sync` forces fsync before the reply.
  Status Write(const std::string& subfile,
               std::vector<WriteFragment> fragments, bool sync = false);

  /// List read (docs/NONCONTIGUOUS_IO.md): fetches the extents of `subfile`
  /// in one round trip; returns their bytes concatenated in extent order.
  /// Extents must obey the wire rules (non-empty, strictly ascending,
  /// non-overlapping) or the server rejects the request at decode time.
  Result<Bytes> ListRead(const std::string& subfile,
                         const std::vector<ReadFragment>& extents);

  /// List write: scatters one batched payload (its size must equal the sum
  /// of the extent lengths) into the extents of `subfile` in order.
  Status ListWrite(const std::string& subfile,
                   const std::vector<ReadFragment>& extents, Bytes data,
                   bool sync = false);

  /// The server process's full metrics text snapshot (docs/OBSERVABILITY.md).
  Result<std::string> Metrics();
  Status Delete(const std::string& subfile);
  /// Every subfile the server stores (fsck's ground truth).
  Result<std::vector<SubfileInfo>> List();
  Status Ping();
  /// Asks the server process to stop accepting and drain (used by tests and
  /// the in-process cluster bootstrap).
  Status Shutdown();

  [[nodiscard]] const Endpoint& endpoint() const noexcept { return endpoint_; }

  /// True if the peer has already closed or reset this connection (a
  /// non-blocking peek sees EOF or a hard error). Callers that hold a
  /// connection across server restarts probe before reuse so the first
  /// request after a restart redials instead of failing on a dead socket.
  /// Best-effort: false only means no close had arrived at probe time.
  [[nodiscard]] bool PeerClosed() const noexcept;

  /// Sends one request frame and receives the reply; returns the reply body
  /// after unwrapping the status envelope. The typed wrappers above cover
  /// the I/O opcodes; the remote metadata manager drives the kMeta* opcodes
  /// through this directly (its body codecs live in client/meta_wire.h,
  /// above net in the build graph).
  Result<Bytes> Call(MessageType type, ByteSpan body);

 private:
  ServerConnection(TcpSocket socket, Endpoint endpoint)
      : socket_(std::move(socket)), endpoint_(std::move(endpoint)) {}

  TcpSocket socket_;
  Endpoint endpoint_;
};

}  // namespace dpfs::net
