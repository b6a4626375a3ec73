// RAII POSIX TCP sockets. DPFS follows the paper's transport choice —
// plain TCP/IP sockets (§2, §10) — with blocking I/O and one handler thread
// per accepted connection on the server side.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace dpfs::net {

/// Owns a connected socket fd. Move-only.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) noexcept : fd_(fd) {}
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;
  ~TcpSocket();

  /// Connects to host:port (IPv4 dotted or "localhost").
  static Result<TcpSocket> Connect(const std::string& host,
                                   std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes the parts back to back with sendmsg, looping over partial
  /// sends, so a frame's header and payload leave in one call without being
  /// copied together. Failpoint site "net.send_all" (fires once per call;
  /// a short send's byte count runs across the parts).
  Status SendAll(std::span<const ByteSpan> parts);
  Status SendAll(ByteSpan data) { return SendAll({&data, 1}); }

  /// Reads exactly data.size() bytes, looping over partial receives.
  /// Returns kUnavailable on clean peer close at a message boundary
  /// (0 bytes read so far) and kProtocolError on mid-message close.
  Status RecvExact(MutableByteSpan data);

  /// Disables Nagle; our request/response protocol is latency-sensitive.
  Status SetNoDelay();

  void Close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1 on an ephemeral (or given) port.
///
/// Thread model: one thread blocks in Accept(); Close() may be called from
/// any other thread to unblock it (the server's shutdown path), so the fd is
/// an atomic — Close() atomically claims it and the claimant alone shuts it
/// down and closes it.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// port 0 = ephemeral; the bound port is queryable afterwards.
  static Result<TcpListener> Bind(std::uint16_t port);

  /// Blocks until a connection arrives. Returns kUnavailable if the
  /// listener has been closed (the server's shutdown path).
  Result<TcpSocket> Accept();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept {
    return fd_.load(std::memory_order_relaxed) >= 0;
  }

  /// Unblocks Accept() from another thread. Idempotent and race-free: the
  /// fd is claimed with an atomic exchange, so concurrent Close() calls
  /// (server Stop racing a session thread's StopAccepting) close it
  /// exactly once.
  void Close() noexcept;

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace dpfs::net
