// The DPFS I/O server (§2): accepts client connections over TCP and services
// brick read/write requests against its local subfile store.
//
// Concurrency model follows the paper: the server handles concurrent client
// requests "by spawning multiple processes or threads to handle them" — here
// one session thread per accepted connection, all sharing the SubfileStore
// (reads run unlocked; each write holds its subfile's lock).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "net/connection.h"
#include "server/frame_server.h"
#include "server/subfile_store.h"

namespace dpfs::server {

struct ServerOptions {
  std::filesystem::path root_dir;  // subfile storage root
  std::uint16_t port = 0;          // 0 = ephemeral
  /// Concurrent session cap; sessions beyond it get a "server busy" error
  /// reply and are dropped, and the client "has to try again later" (§4.2).
  /// 0 = unlimited.
  std::size_t max_sessions = 0;
};

class IoServer {
 public:
  /// Binds, starts the accept loop, and returns a running server.
  static Result<std::unique_ptr<IoServer>> Start(ServerOptions options);

  ~IoServer();
  IoServer(const IoServer&) = delete;
  IoServer& operator=(const IoServer&) = delete;

  [[nodiscard]] net::Endpoint endpoint() const noexcept {
    return transport_.endpoint();
  }
  [[nodiscard]] SubfileStore& store() noexcept { return store_; }

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  explicit IoServer(const ServerOptions& options);

  /// The per-opcode service switch for the I/O opcodes. `scratch` is the
  /// session's buffer: a read's data goes into it as the reply's tail, and
  /// a write assembles its sieved spans in it.
  FrameServer::Reply Dispatch(net::MessageType type, BinaryReader& reader,
                              Bytes& scratch);

  SubfileStore store_;
  FrameServer transport_;
};

}  // namespace dpfs::server
