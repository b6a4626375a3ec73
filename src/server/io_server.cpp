#include "server/io_server.h"

#include "common/metrics.h"
#include "net/messages.h"

namespace dpfs::server {

namespace {
metrics::Counter& ListExtents() {
  static metrics::Counter& counter =
      metrics::GetCounter("io_server.list_extents");
  return counter;
}

/// A failed store operation's reply; it counts into the transport's
/// io_server.errors.
Bytes StoreErrorReply(const Status& status) {
  static metrics::Counter& errors = metrics::GetCounter("io_server.errors");
  errors.Add();
  return net::EncodeReply(status, {});
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
                       net::MessageType::kDelete, net::MessageType::kList,
                       net::MessageType::kListRead,
                       net::MessageType::kListWrite},
           .session_failpoint = "server.session",
           .reply_failpoint = "server.before_reply"},
          [this](net::MessageType type, BinaryReader& reader) {
            return Dispatch(type, reader);
          }) {}

IoServer::~IoServer() { Stop(); }

void IoServer::Stop() { transport_.Stop(); }

Bytes IoServer::Dispatch(net::MessageType type, BinaryReader& reader) {
  switch (type) {
    case net::MessageType::kRead: {
      Result<net::ReadRequest> request = net::ReadRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      Result<Bytes> data =
          store_.ReadFragments(request.value().subfile,
                               request.value().fragments);
      if (!data.ok()) return StoreErrorReply(data.status());
      return net::EncodeReply(Status::Ok(), data.value());
    }

    case net::MessageType::kWrite: {
      Result<net::WriteRequest> request = net::WriteRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      const Status written = store_.WriteFragments(request.value().subfile,
                                                   request.value().fragments,
                                                   request.value().sync);
      if (!written.ok()) return StoreErrorReply(written);
      return net::EncodeReply(Status::Ok(), {});
    }

    case net::MessageType::kListRead: {
      // Noncontiguous list read (docs/NONCONTIGUOUS_IO.md): the decoder has
      // already enforced the extent rules, so the store can iterate the
      // extents directly — same fragment machinery as kRead, one reply.
      Result<net::ListReadRequest> request =
          net::ListReadRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      ListExtents().Add(request.value().extents.size());
      Result<Bytes> data = store_.ReadFragments(request.value().subfile,
                                                request.value().extents);
      if (!data.ok()) return StoreErrorReply(data.status());
      return net::EncodeReply(Status::Ok(), data.value());
    }

    case net::MessageType::kListWrite: {
      Result<net::ListWriteRequest> request =
          net::ListWriteRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      ListExtents().Add(request.value().extents.size());
      // Scatter the batched payload into per-extent fragments (the decoder
      // guarantees the payload size equals the extent sum); the store's
      // write path is shared with kWrite from here.
      std::vector<net::WriteFragment> fragments;
      fragments.reserve(request.value().extents.size());
      std::size_t cursor = 0;
      for (const net::ReadFragment& extent : request.value().extents) {
        net::WriteFragment fragment;
        fragment.offset = extent.offset;
        fragment.data.assign(
            request.value().data.begin() + static_cast<std::ptrdiff_t>(cursor),
            request.value().data.begin() +
                static_cast<std::ptrdiff_t>(cursor + extent.length));
        cursor += extent.length;
        fragments.push_back(std::move(fragment));
      }
      const Status written = store_.WriteFragments(
          request.value().subfile, fragments, request.value().sync);
      if (!written.ok()) return StoreErrorReply(written);
      return net::EncodeReply(Status::Ok(), {});
    }

    case net::MessageType::kDelete: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::EncodeReply(subfile.status(), {});
      return net::EncodeReply(store_.Delete(subfile.value()), {});
    }

    case net::MessageType::kList: {
      const Result<std::vector<net::SubfileInfo>> listing =
          store_.ListSubfiles();
      if (!listing.ok()) return net::EncodeReply(listing.status(), {});
      BinaryWriter body;
      body.WriteU32(static_cast<std::uint32_t>(listing.value().size()));
      for (const net::SubfileInfo& info : listing.value()) {
        body.WriteString(info.name);
        body.WriteU64(info.size);
      }
      return net::EncodeReply(Status::Ok(), body.buffer());
    }

    default:
      // Opcodes outside Options::opcodes never reach Dispatch; the switch
      // must stay total under -Wswitch.
      break;
  }
  return net::EncodeReply(ProtocolError("unhandled message type"), {});
}

}  // namespace dpfs::server
