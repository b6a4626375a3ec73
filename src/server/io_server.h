// The DPFS I/O server (§2): accepts client connections over TCP and services
// brick read/write requests against its local subfile store.
//
// Concurrency model follows the paper: the server handles concurrent client
// requests "by spawning multiple processes or threads to handle them" — here
// one session thread per accepted connection, all sharing the SubfileStore
// (kernel pread/pwrite make fragment I/O thread-safe).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
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
  /// > 0: a background thread writes the process-wide metrics text snapshot
  /// to `metrics_dump_path` every interval (atomic tmp+rename), so long
  /// runs are observable without a DPFS client (docs/OBSERVABILITY.md).
  std::chrono::milliseconds metrics_dump_interval{0};
  /// Snapshot target; empty = root_dir / "metrics.txt".
  std::filesystem::path metrics_dump_path;
  /// != 0: also serve the metrics snapshot over plain HTTP on this port
  /// (`GET /metrics`, server/metrics_http.h) so external scrapers can pull
  /// without speaking the DPFS protocol. 0 = no HTTP endpoint. Use
  /// kEphemeralMetricsPort to bind an ephemeral port (tests).
  std::uint16_t metrics_port = 0;
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
  [[nodiscard]] const ServerStats& stats() const noexcept {
    return transport_.stats();
  }
  [[nodiscard]] SubfileStore& store() noexcept { return store_; }
  /// Bound HTTP scrape port (metrics_port != 0 only); 0 when disabled.
  [[nodiscard]] std::uint16_t metrics_http_port() const noexcept {
    return transport_.metrics_http_port();
  }

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  explicit IoServer(ServerOptions options);

  /// The per-opcode service switch for the I/O opcodes; returns the reply
  /// payload.
  Bytes Dispatch(net::MessageType type, BinaryReader& reader);
  void MetricsDumpLoop();

  ServerOptions options_;
  SubfileStore store_;
  FrameServer transport_;

  std::thread dump_thread_;  // metrics_dump_interval > 0 only
  Mutex dump_mu_;
  CondVar dump_cv_;
  bool dump_stop_ DPFS_GUARDED_BY(dump_mu_) = false;
};

}  // namespace dpfs::server
