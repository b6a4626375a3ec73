#include "server/io_server.h"

#include "common/metrics.h"
#include "net/messages.h"

namespace dpfs::server {

namespace {
/// A failed store operation's reply; it counts into the transport's
/// io_server.errors.
FrameServer::Reply StoreErrorReply(const Status& status) {
  static metrics::Counter& errors = metrics::GetCounter("io_server.errors");
  errors.Add();
  return {net::EncodeReply(status)};
}

FrameServer::Reply StatusReply(const Status& status) {
  return {net::EncodeReply(status)};
}
}  // namespace

Result<std::unique_ptr<IoServer>> IoServer::Start(ServerOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(options.root_dir, ec);
  if (ec) {
    return IoError("create server root '" + options.root_dir.string() +
                   "': " + ec.message());
  }
  std::unique_ptr<IoServer> server(new IoServer(options));
  DPFS_RETURN_IF_ERROR(server->transport_.Start());
  return server;
}

IoServer::IoServer(const ServerOptions& options)
    : store_(options.root_dir),
      transport_(
          {.port = options.port,
           .max_sessions = options.max_sessions,
           .metrics_port = options.metrics_port,
           .metric_prefix = "io_server",
           .opcodes = {net::MessageType::kRead, net::MessageType::kWrite,
                       net::MessageType::kDelete, net::MessageType::kList},
           .session_failpoint = "server.session",
           .reply_failpoint = "server.before_reply"},
          [this](net::MessageType type, BinaryReader& reader,
                 Bytes& scratch) { return Dispatch(type, reader, scratch); }) {}

IoServer::~IoServer() { Stop(); }

void IoServer::Stop() { transport_.Stop(); }

FrameServer::Reply IoServer::Dispatch(net::MessageType type,
                                      BinaryReader& reader, Bytes& scratch) {
  switch (type) {
    case net::MessageType::kRead: {
      Result<net::ReadRequest> request = net::ReadRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      // The scratch buffer only grows, so a read no larger than one this
      // session served before is neither allocated nor zero-filled: the
      // store writes every byte of the reply.
      const std::uint64_t total = request.value().total_bytes();
      if (scratch.size() < total) scratch.resize(total);
      const MutableByteSpan data = MutableByteSpan(scratch).first(total);
      const Status read = store_.ReadFragments(
          request.value().subfile, request.value().fragments, data);
      if (!read.ok()) return StoreErrorReply(read);
      return {net::EncodeReply(Status::Ok()), data};
    }

    case net::MessageType::kWrite: {
      // The fragments view `reader`'s frame, which outlives this call; a
      // sieved span is assembled in `scratch`.
      Result<net::WriteRequest> request = net::WriteRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Status written = store_.WriteFragments(
          request.value().subfile, request.value().fragments,
          request.value().sync, scratch);
      if (!written.ok()) return StoreErrorReply(written);
      return StatusReply(Status::Ok());
    }

    case net::MessageType::kDelete: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return StatusReply(subfile.status());
      return StatusReply(store_.Delete(subfile.value()));
    }

    case net::MessageType::kList: {
      const Result<std::vector<net::SubfileInfo>> listing =
          store_.ListSubfiles();
      if (!listing.ok()) return StatusReply(listing.status());
      BinaryWriter reply(net::EncodeReply(Status::Ok()));
      reply.WriteU32(static_cast<std::uint32_t>(listing.value().size()));
      for (const net::SubfileInfo& info : listing.value()) {
        reply.WriteString(info.name);
        reply.WriteU64(info.size);
      }
      return {std::move(reply).TakeBuffer()};
    }

    default:
      // Opcodes outside Options::opcodes never reach Dispatch; the switch
      // must stay total under -Wswitch.
      break;
  }
  return StatusReply(ProtocolError("unhandled message type"));
}

}  // namespace dpfs::server
