// The frame-serving transport under both DPFS servers: dpfsd's IoServer and
// dpfs-metad's MetadService.
//
// Concurrency follows the paper (§2): the server handles concurrent clients
// "by spawning multiple processes or threads to handle them" — here one
// session thread per accepted connection, each looping
// RecvFrame → decode → dispatch → SendFrame. Everything the two servers
// share lives here: accepting, the max_sessions "server busy" reply (§4.2),
// the session and reply failpoints, kPing / kMetrics, per-opcode request
// and service-time metrics and the session and error counters under the
// owner's prefix, and Stop. This is a daemon's one listener, and no opcode
// stops it: its owner does. The owner supplies the dispatch for its own
// opcodes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
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

class FrameServer {
 public:
  /// A reply payload in the two parts one frame sends: `head`, the status
  /// envelope with any body written behind it, then `tail`.
  struct Reply {
    Bytes head;
    ByteSpan tail = {};
  };

  /// Services one decoded request whose opcode is in Options::opcodes and
  /// returns its reply. Called concurrently from session threads. `scratch`
  /// is the calling session's own buffer, kept across its requests: a
  /// handler may fill it and return a view of it as the reply's tail, which
  /// stays valid until the reply is sent.
  using Dispatch = std::function<Reply(net::MessageType, BinaryReader& request,
                                       Bytes& scratch)>;

  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral
    /// Concurrent session cap; a session beyond it gets one "server busy"
    /// reply and is dropped. 0 = unlimited.
    std::size_t max_sessions = 0;
    /// Instruments are "<metric_prefix>.requests.<op>", ".bad_requests", ...
    /// (docs/OBSERVABILITY.md).
    std::string metric_prefix;
    /// Opcodes handed to Dispatch. kPing and kMetrics are answered here;
    /// any other opcode gets a kProtocolError reply.
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

  /// Binds options.port and starts the accept thread.
  Status Start();

  /// Stops accepting, unblocks live sessions, joins every thread.
  /// Idempotent.
  void Stop();

  /// Closes the listener, and every session ends without answering the
  /// next request it receives, so nothing is served after the call but the
  /// replies already being handled. Joins nothing, so it is safe on a
  /// session thread: the metad.crash failpoint kills the metadata service
  /// this way. Stop() still joins afterwards.
  void StopAccepting();

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return endpoint_; }

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
  Reply HandleRequest(ByteSpan frame, Bytes& scratch);

  const Options options_;
  const Dispatch dispatch_;
  // Per-opcode instruments indexed by MessageType; null = not served.
  std::array<metrics::Counter*, net::kMaxMessageType + 1> requests_{};
  std::array<metrics::Histogram*, net::kMaxMessageType + 1>
      service_time_us_{};
  metrics::Counter& bad_requests_;
  metrics::Counter& busy_rejects_;
  metrics::Counter& sessions_accepted_;
  metrics::Counter& errors_;
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

  std::thread accept_thread_;
};

}  // namespace dpfs::server
