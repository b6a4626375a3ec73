#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace dpfs::net {

namespace {

/// Raw best-effort send of exactly `data` (the failpoints' partial-transfer
/// helper; plain SendAll must not be reentered while shaping a transfer).
void SendBestEffort(int fd, ByteSpan data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpSocket::~TcpSocket() { Close(); }

void TcpSocket::Close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpSocket> TcpSocket::Connect(const std::string& host,
                                     std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return IoErrnoError("socket", host);
  TcpSocket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return UnavailableError("connect " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
  }
  DPFS_RETURN_IF_ERROR(sock.SetNoDelay());
  return sock;
}

Status TcpSocket::SetNoDelay() {
  const int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return IoErrnoError("setsockopt TCP_NODELAY", std::to_string(fd_));
  }
  return Status::Ok();
}

Status TcpSocket::SendAll(std::span<const ByteSpan> parts) {
  if (auto fp = failpoint::Check("net.send_all")) {
    switch (fp->action) {
      case failpoint::Action::kReturnError:
        return fp->status;
      case failpoint::Action::kShortIo:
      case failpoint::Action::kDisconnect: {
        // Deliver only the first `arg` bytes, then sever the connection —
        // the peer observes a frame truncated mid-stream.
        auto budget = static_cast<std::size_t>(fp->arg);
        for (const ByteSpan part : parts) {
          const std::size_t n = std::min(budget, part.size());
          SendBestEffort(fd_, part.first(n));
          budget -= n;
        }
        Close();
        return UnavailableError("send: connection reset (" +
                                fp->status.message() + ")");
      }
      default:
        break;
    }
  }
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const ByteSpan part : parts) {
    // sendmsg only reads through iov_base.
    if (!part.empty()) {
      iov.push_back({const_cast<std::uint8_t*>(part.data()), part.size()});
    }
  }
  std::size_t next = 0;  // first iovec not yet sent in full
  while (next < iov.size()) {
    msghdr message{};
    message.msg_iov = iov.data() + next;
    message.msg_iovlen = std::min<std::size_t>(iov.size() - next, IOV_MAX);
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError(std::string("send: ") + std::strerror(errno));
    }
    auto sent = static_cast<std::size_t>(n);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iov[next].iov_base =
          static_cast<std::uint8_t*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  return Status::Ok();
}

Status TcpSocket::RecvExact(MutableByteSpan data) {
  if (auto fp = failpoint::Check("net.recv_exact")) {
    switch (fp->action) {
      case failpoint::Action::kReturnError:
        return fp->status;
      case failpoint::Action::kShortIo:
      case failpoint::Action::kDisconnect:
        // Behave as if the peer closed mid-message after `arg` bytes. The
        // unread bytes stay queued, but the connection is severed so no one
        // resynchronizes on them.
        Close();
        if (fp->arg == 0 && data.size() > 0) {
          return UnavailableError("peer closed connection (" +
                                  fp->status.message() + ")");
        }
        return ProtocolError("peer closed connection mid-message (" +
                             fp->status.message() + ")");
      default:
        break;
    }
  }
  std::size_t received = 0;
  while (received < data.size()) {
    const ssize_t n =
        ::recv(fd_, data.data() + received, data.size() - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return UnavailableError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (received == 0) {
        return UnavailableError("peer closed connection");
      }
      return ProtocolError("peer closed connection mid-message");
    }
    received += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
      port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
    port_ = other.port_;
  }
  return *this;
}

TcpListener::~TcpListener() { Close(); }

void TcpListener::Close() noexcept {
  // Claim the fd atomically so a Close() racing Accept()'s reader (or a
  // second Close()) cannot double-close or observe a torn value.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<TcpListener> TcpListener::Bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return IoErrnoError("socket", "listener");
  TcpListener listener;
  listener.fd_ = fd;

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return IoErrnoError("bind", "127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) {
    return IoErrnoError("listen", std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return IoErrnoError("getsockname", std::to_string(fd));
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpSocket> TcpListener::Accept() {
  const int listen_fd = fd_.load(std::memory_order_acquire);
  if (listen_fd < 0) {
    return UnavailableError("accept: listener closed");
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR) return Accept();
    return UnavailableError(std::string("accept: ") + std::strerror(errno));
  }
  TcpSocket sock(fd);
  DPFS_RETURN_IF_ERROR(sock.SetNoDelay());
  return sock;
}

}  // namespace dpfs::net
