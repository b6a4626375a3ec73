// Client-side connection to one DPFS I/O server, with typed RPC wrappers
// around the wire protocol. One connection per client thread; instances are
// not thread-safe (DPFS clients open a connection per server, per thread).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
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

/// A received reply: the frame it arrived in, with the body behind the
/// status envelope viewed in place rather than copied out. It owns its
/// frame, so the body stays valid whatever the connection receives next.
class ReplyFrame {
 public:
  ReplyFrame(FrameBuffer frame, std::size_t body_offset)
      : frame_(std::move(frame)), body_offset_(body_offset) {}

  [[nodiscard]] ByteSpan body() const noexcept {
    return frame_.bytes().subspan(body_offset_);
  }

 private:
  FrameBuffer frame_;
  std::size_t body_offset_;
};

class ServerConnection {
 public:
  static Result<ServerConnection> Connect(const Endpoint& endpoint);

  ServerConnection(ServerConnection&&) noexcept = default;
  ServerConnection& operator=(ServerConnection&&) noexcept = default;

  /// Reads the fragments of `subfile`; the reply's body is their bytes
  /// concatenated in request order, for the caller to scatter from. Fragments
  /// past EOF read as zeroes (unwritten brick slots are holes in the sparse
  /// subfile). A reply whose size is not the sum of the fragment lengths is a
  /// kProtocolError.
  Result<ReplyFrame> Read(const std::string& subfile,
                          const std::vector<ReadFragment>& fragments);

  /// Writes all fragments; `sync` forces fsync before the reply. Their bytes
  /// are gathered straight into the request frame (WriteRequest::Encode).
  Status Write(const std::string& subfile,
               std::span<const WriteFragment> fragments, bool sync = false);

  /// The server process's full metrics text snapshot (docs/OBSERVABILITY.md).
  Result<std::string> Metrics();
  Status Delete(const std::string& subfile);
  /// Every subfile the server stores (fsck's ground truth).
  Result<std::vector<SubfileInfo>> List();
  Status Ping();

  [[nodiscard]] const Endpoint& endpoint() const noexcept { return endpoint_; }

  /// True if the peer has already closed or reset this connection (a
  /// non-blocking peek sees EOF or a hard error). Callers that hold a
  /// connection across server restarts probe before reuse so the first
  /// request after a restart redials instead of failing on a dead socket.
  /// Best-effort: false only means no close had arrived at probe time.
  [[nodiscard]] bool PeerClosed() const noexcept;

  /// Sends one request frame and receives the reply; an ok reply comes back
  /// as its frame, the body behind the status envelope. The typed wrappers
  /// above cover the I/O opcodes; the remote metadata manager drives the
  /// kMeta* opcodes through this directly (its body codecs live in
  /// client/meta_wire.h, above net in the build graph).
  Result<ReplyFrame> Call(MessageType type, ByteSpan body);

 private:
  ServerConnection(TcpSocket socket, Endpoint endpoint)
      : socket_(std::move(socket)), endpoint_(std::move(endpoint)) {}

  TcpSocket socket_;
  Endpoint endpoint_;
};

}  // namespace dpfs::net
