#include "net/connection.h"

#include <sys/socket.h>

#include <cerrno>

#include "common/failpoint.h"

namespace dpfs::net {

Result<Endpoint> Endpoint::Parse(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return InvalidArgumentError("endpoint '" + std::string(text) +
                                "' is not host:port");
  }
  Endpoint endpoint;
  endpoint.host = std::string(text.substr(0, colon));
  const std::string port_text(text.substr(colon + 1));
  int port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("endpoint port '" + port_text +
                                  "' is not a number");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return InvalidArgumentError("endpoint port '" + port_text +
                                  "' is out of range");
    }
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

Result<ServerConnection> ServerConnection::Connect(const Endpoint& endpoint) {
  DPFS_ASSIGN_OR_RETURN(TcpSocket socket,
                        TcpSocket::Connect(endpoint.host, endpoint.port));
  return ServerConnection(std::move(socket), endpoint);
}

bool ServerConnection::PeerClosed() const noexcept {
  char byte = 0;
  const ssize_t peeked =
      ::recv(socket_.fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (peeked == 0) return true;  // orderly FIN
  if (peeked < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
  return false;  // unread bytes pending — the next Call will sort it out
}

Result<ReplyFrame> ServerConnection::Call(MessageType type, ByteSpan body) {
  DPFS_FAILPOINT_RETURN("client.call");
  const auto type_byte = static_cast<std::uint8_t>(type);
  DPFS_RETURN_IF_ERROR(
      SendFrame(socket_, {{&type_byte, 1}, body})
          .WithContext("send " + std::string(MessageTypeName(type)) + " to " +
                       endpoint_.ToString()));
  FrameBuffer reply_frame;
  const Status received = RecvFrame(socket_, reply_frame);
  if (!received.ok()) {
    // Any reply-path transport failure — clean close, mid-frame close
    // (kProtocolError), or CRC mismatch (kDataLoss) — means the server or
    // the connection died under us. Surface all of them as kUnavailable so
    // the caller's retry policy treats a torn reply like a dead server: the
    // connection is abandoned and the (idempotent) request re-issued.
    const Status context = received.WithContext(
        "recv " + std::string(MessageTypeName(type)) + " reply from " +
        endpoint_.ToString());
    if (received.code() == StatusCode::kProtocolError ||
        received.code() == StatusCode::kDataLoss) {
      return UnavailableError(context.message());
    }
    return context;
  }
  DPFS_ASSIGN_OR_RETURN(const DecodedReply reply,
                        DecodeReply(reply_frame.bytes()));
  if (!reply.status.ok()) return reply.status;
  const auto body_offset = static_cast<std::size_t>(
      reply.body.data() - reply_frame.bytes().data());
  return ReplyFrame(std::move(reply_frame), body_offset);
}

Result<ReplyFrame> ServerConnection::Read(
    const std::string& subfile, const std::vector<ReadFragment>& fragments) {
  ReadRequest request;
  request.subfile = subfile;
  request.fragments = fragments;
  BinaryWriter body;
  request.Encode(body);
  DPFS_ASSIGN_OR_RETURN(ReplyFrame reply,
                        Call(MessageType::kRead, body.buffer()));
  // Callers scatter the reply by the requested lengths; a short or long
  // reply must not reach them.
  const std::uint64_t requested = request.total_bytes();
  if (reply.body().size() != requested) {
    return ProtocolError("read reply from " + endpoint_.ToString() +
                         " carries " + std::to_string(reply.body().size()) +
                         " bytes for " + std::to_string(requested) +
                         " requested");
  }
  return reply;
}

Status ServerConnection::Write(const std::string& subfile,
                               std::span<const WriteFragment> fragments,
                               bool sync) {
  WriteRequest request;
  request.subfile = subfile;
  request.sync = sync;
  request.fragments.assign(fragments.begin(), fragments.end());
  // Sized up front so that gathering the data copies each byte once.
  Bytes body;
  body.reserve(subfile.size() + 9 + 12 * fragments.size() +
               request.total_bytes());
  BinaryWriter writer(std::move(body));
  request.Encode(writer);
  return Call(MessageType::kWrite, writer.buffer()).status();
}

Result<std::string> ServerConnection::Metrics() {
  DPFS_ASSIGN_OR_RETURN(const ReplyFrame reply,
                        Call(MessageType::kMetrics, {}));
  BinaryReader reader(reply.body());
  return reader.ReadString();
}

Status ServerConnection::Delete(const std::string& subfile) {
  BinaryWriter body;
  body.WriteString(subfile);
  return Call(MessageType::kDelete, body.buffer()).status();
}

Result<std::vector<SubfileInfo>> ServerConnection::List() {
  DPFS_ASSIGN_OR_RETURN(const ReplyFrame reply, Call(MessageType::kList, {}));
  BinaryReader reader(reply.body());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  std::vector<SubfileInfo> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    SubfileInfo info;
    DPFS_ASSIGN_OR_RETURN(info.name, reader.ReadString());
    DPFS_ASSIGN_OR_RETURN(info.size, reader.ReadU64());
    out.push_back(std::move(info));
  }
  return out;
}

Status ServerConnection::Ping() {
  return Call(MessageType::kPing, {}).status();
}

}  // namespace dpfs::net
