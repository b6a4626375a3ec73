// The frame-serving transport under both DPFS servers: dpfsd's IoServer and
// dpfs-metad's MetadService.
//
// Concurrency follows the paper (§2): the server handles concurrent clients
// "by spawning multiple processes or threads to handle them" — here one
// session thread per accepted connection, each looping
// RecvFrame → decode → dispatch → SendFrame. Everything the two servers
// share lives here: accepting, the max_sessions "server busy" reply (§4.2),
// the session and reply failpoints, kPing / kShutdown / kMetrics,
// per-opcode request and service-time metrics under the owner's prefix,
// the /metrics HTTP endpoint, and Stop. The owner supplies the dispatch for
// its own opcodes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/connection.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs::server {

class MetricsHttpServer;

/// Sentinel for ServerOptions/MetadOptions::metrics_port: start the HTTP
/// endpoint on an ephemeral port (query it via metrics_http_port()).
inline constexpr std::uint16_t kEphemeralMetricsPort = 0xffff;

/// Monotonic counters exposed for tests and the shell's `df`.
struct ServerStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes_read{0};     // payload bytes served
  std::atomic<std::uint64_t> bytes_written{0};  // payload bytes stored
  std::atomic<std::uint64_t> sessions_accepted{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> sessions_rejected_busy{0};
};

class FrameServer {
 public:
  /// Services one decoded request whose opcode is in Options::opcodes and
  /// returns the encoded reply payload. Called concurrently from session
  /// threads.
  using Dispatch = std::function<Bytes(net::MessageType, BinaryReader&)>;

  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral
    /// Concurrent session cap; a session beyond it gets one "server busy"
    /// reply and is dropped. 0 = unlimited.
    std::size_t max_sessions = 0;
    /// != 0: serve `GET /metrics` over HTTP on this port
    /// (kEphemeralMetricsPort = ephemeral).
    std::uint16_t metrics_port = 0;
    /// Instruments are "<metric_prefix>.requests.<op>", ".bad_requests", ...
    /// (docs/OBSERVABILITY.md).
    std::string metric_prefix;
    /// Opcodes handed to Dispatch. kPing, kShutdown and kMetrics are
    /// answered here; any other opcode gets a kProtocolError reply.
    std::vector<net::MessageType> opcodes;
    /// Failpoint sites (docs/FAULT_INJECTION.md). A kBusy hit on
    /// session_failpoint turns a new session away as if over max_sessions
    /// (nullptr = no site); reply_failpoint, which every owner names,
    /// gates every reply.
    const char* session_failpoint = nullptr;
    const char* reply_failpoint = nullptr;
  };

  FrameServer(Options options, Dispatch dispatch);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds options.port and starts the accept thread and, if configured,
  /// the HTTP endpoint.
  Status Start();

  /// Stops accepting, unblocks live sessions, joins every thread.
  /// Idempotent.
  void Stop();

  /// kShutdown's "stop taking connections": closes the listener and lets
  /// each session end after its current request. Safe on a session thread.
  void StopAccepting();

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return endpoint_; }
  /// Bound HTTP scrape port (metrics_port != 0 only); 0 when disabled.
  [[nodiscard]] std::uint16_t metrics_http_port() const noexcept;
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }

 private:
  struct LiveSession {
    // Open for as long as the entry exists, unless a net.* disconnect
    // failpoint closed it early (fault-injection runs only).
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  /// Runs one session, then retires its entry before the socket closes.
  void Session(std::uint64_t id, net::TcpSocket socket, bool reject_busy);
  void Serve(net::TcpSocket& socket, bool reject_busy);
  /// Decodes one request frame, counts and times it, answers it.
  Bytes HandleRequest(ByteSpan frame);

  const Options options_;
  const Dispatch dispatch_;
  ServerStats stats_;
  // Per-opcode instruments indexed by MessageType; null = not served.
  std::array<metrics::Counter*, net::kMaxMessageType + 1> requests_{};
  std::array<metrics::Histogram*, net::kMaxMessageType + 1>
      service_time_us_{};
  metrics::Counter& bad_requests_;
  metrics::Counter& busy_rejects_;
  metrics::Gauge& inflight_sessions_;

  net::TcpListener listener_;
  net::Endpoint endpoint_;
  std::atomic<bool> stopping_{false};

  Mutex mu_;
  std::uint64_t next_session_ DPFS_GUARDED_BY(mu_) = 0;
  // Live sessions only, so Stop() never shuts down an fd number the
  // process has since reused for another socket.
  std::map<std::uint64_t, LiveSession> sessions_ DPFS_GUARDED_BY(mu_);
  // Threads of ended sessions, joined by the accept loop or Stop().
  std::vector<std::thread> finished_ DPFS_GUARDED_BY(mu_);

  std::unique_ptr<MetricsHttpServer> metrics_http_;
  std::thread accept_thread_;
};

}  // namespace dpfs::server
