#include "server/io_server.h"

#include <fstream>

#include "common/log.h"
#include "common/metrics.h"
#include "net/messages.h"

namespace dpfs::server {

namespace {
/// Atomic (tmp + rename) text-snapshot dump; partial files never appear at
/// the published path.
void DumpSnapshot(const std::filesystem::path& path) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      DPFS_LOG_WARN << "metrics dump: cannot open " << tmp.string();
      return;
    }
    out << metrics::Registry::Global().TextSnapshot();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    DPFS_LOG_WARN << "metrics dump: rename to " << path.string() << ": "
                  << ec.message();
  }
}

metrics::Counter& ListExtents() {
  static metrics::Counter& counter =
      metrics::GetCounter("io_server.list_extents");
  return counter;
}
}  // namespace

Result<std::unique_ptr<IoServer>> IoServer::Start(ServerOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(options.root_dir, ec);
  if (ec) {
    return IoError("create server root '" + options.root_dir.string() +
                   "': " + ec.message());
  }
  std::unique_ptr<IoServer> server(new IoServer(std::move(options)));
  DPFS_RETURN_IF_ERROR(server->transport_.Start());
  if (server->options_.metrics_dump_interval.count() > 0) {
    server->dump_thread_ = std::thread([raw = server.get()] {
      raw->MetricsDumpLoop();
    });
  }
  return server;
}

IoServer::IoServer(ServerOptions options)
    : options_(std::move(options)),
      store_(options_.root_dir),
      transport_(
          {.port = options_.port,
           .max_sessions = options_.max_sessions,
           .metrics_port = options_.metrics_port,
           .metric_prefix = "io_server",
           .opcodes = {net::MessageType::kRead, net::MessageType::kWrite,
                       net::MessageType::kStat, net::MessageType::kDelete,
                       net::MessageType::kTruncate, net::MessageType::kStats,
                       net::MessageType::kRename, net::MessageType::kList,
                       net::MessageType::kListRead,
                       net::MessageType::kListWrite},
           .session_failpoint = "server.session",
           .reply_failpoint = "server.before_reply"},
          [this](net::MessageType type, BinaryReader& reader) {
            return Dispatch(type, reader);
          }) {}

IoServer::~IoServer() { Stop(); }

void IoServer::Stop() {
  if (dump_thread_.joinable()) {
    {
      MutexLock lock(dump_mu_);
      dump_stop_ = true;
    }
    dump_cv_.NotifyAll();
    dump_thread_.join();
  }
  transport_.Stop();
}

Bytes IoServer::Dispatch(net::MessageType type, BinaryReader& reader) {
  ServerStats& counters = transport_.stats();
  switch (type) {
    case net::MessageType::kRead: {
      Result<net::ReadRequest> request = net::ReadRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      Result<Bytes> data =
          store_.ReadFragments(request.value().subfile,
                               request.value().fragments);
      if (!data.ok()) {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        return net::EncodeReply(data.status(), {});
      }
      counters.bytes_read.fetch_add(data.value().size(),
                                    std::memory_order_relaxed);
      return net::EncodeReply(Status::Ok(), data.value());
    }

    case net::MessageType::kWrite: {
      Result<net::WriteRequest> request = net::WriteRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      const std::uint64_t payload = request.value().total_bytes();
      const Status written = store_.WriteFragments(request.value().subfile,
                                                   request.value().fragments,
                                                   request.value().sync);
      if (!written.ok()) {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        return net::EncodeReply(written, {});
      }
      counters.bytes_written.fetch_add(payload, std::memory_order_relaxed);
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
      if (!data.ok()) {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        return net::EncodeReply(data.status(), {});
      }
      counters.bytes_read.fetch_add(data.value().size(),
                                    std::memory_order_relaxed);
      return net::EncodeReply(Status::Ok(), data.value());
    }

    case net::MessageType::kListWrite: {
      Result<net::ListWriteRequest> request =
          net::ListWriteRequest::Decode(reader);
      if (!request.ok()) return net::EncodeReply(request.status(), {});
      ListExtents().Add(request.value().extents.size());
      const std::uint64_t payload = request.value().total_bytes();
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
      if (!written.ok()) {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        return net::EncodeReply(written, {});
      }
      counters.bytes_written.fetch_add(payload, std::memory_order_relaxed);
      return net::EncodeReply(Status::Ok(), {});
    }

    case net::MessageType::kStat: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::EncodeReply(subfile.status(), {});
      const Result<net::StatReply> stat = store_.Stat(subfile.value());
      if (!stat.ok()) return net::EncodeReply(stat.status(), {});
      BinaryWriter body;
      body.WriteBool(stat.value().exists);
      body.WriteU64(stat.value().size);
      return net::EncodeReply(Status::Ok(), body.buffer());
    }

    case net::MessageType::kDelete: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::EncodeReply(subfile.status(), {});
      return net::EncodeReply(store_.Delete(subfile.value()), {});
    }

    case net::MessageType::kTruncate: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::EncodeReply(subfile.status(), {});
      const Result<std::uint64_t> size = reader.ReadU64();
      if (!size.ok()) return net::EncodeReply(size.status(), {});
      return net::EncodeReply(
          store_.Truncate(subfile.value(), size.value()), {});
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

    case net::MessageType::kRename: {
      const Result<std::string> from = reader.ReadString();
      if (!from.ok()) return net::EncodeReply(from.status(), {});
      const Result<std::string> to = reader.ReadString();
      if (!to.ok()) return net::EncodeReply(to.status(), {});
      return net::EncodeReply(store_.Rename(from.value(), to.value()), {});
    }

    case net::MessageType::kStats: {
      net::StatsReply stats;
      stats.requests = counters.requests.load(std::memory_order_relaxed);
      stats.bytes_read = counters.bytes_read.load(std::memory_order_relaxed);
      stats.bytes_written =
          counters.bytes_written.load(std::memory_order_relaxed);
      stats.sessions_accepted =
          counters.sessions_accepted.load(std::memory_order_relaxed);
      stats.errors = counters.errors.load(std::memory_order_relaxed);
      stats.fd_cache_hits = store_.fd_cache().hits();
      stats.fd_cache_misses = store_.fd_cache().misses();
      const Result<std::uint64_t> stored = store_.TotalBytesStored();
      stats.stored_bytes = stored.ok() ? stored.value() : 0;
      BinaryWriter body;
      stats.Encode(body);
      return net::EncodeReply(Status::Ok(), body.buffer());
    }

    default:
      // Opcodes outside Options::opcodes never reach Dispatch; the switch
      // must stay total under -Wswitch.
      break;
  }
  return net::EncodeReply(ProtocolError("unhandled message type"), {});
}

void IoServer::MetricsDumpLoop() {
  const std::filesystem::path path = options_.metrics_dump_path.empty()
                                         ? options_.root_dir / "metrics.txt"
                                         : options_.metrics_dump_path;
  {
    MutexLock lock(dump_mu_);
    while (!dump_stop_) {
      if (dump_cv_.WaitFor(dump_mu_, options_.metrics_dump_interval)) {
        continue;  // notified: re-check dump_stop_
      }
      DumpSnapshot(path);
    }
  }
  // Final snapshot on shutdown so even a short run leaves one behind.
  DumpSnapshot(path);
}

}  // namespace dpfs::server
