// dpfsd — the standalone DPFS I/O server daemon (the paper's "DPFS Server
// Program" that runs on each storage workstation).
//
//   dpfsd --root /var/dpfs [--port 7070] [--name host.example]
//         [--metadb /shared/dpfs-meta] [--metadb-shards 1]
//         [--metad host:port]
//         [--capacity 536870912]
//         [--performance 1]
//         [--metrics-dump-ms 0] [--metrics-dump-path FILE]
//         [--metrics-port 0]
//
// With --metadb, the server registers itself in the DPFS_SERVER table so
// clients can find it (re-registering replaces a stale row). With --metad,
// registration goes over the wire to a dpfs-metad process instead — the
// metad owns the database flock, so opening the directory here would
// block. Runs until SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <thread>

#include "client/metadata.h"
#include "client/remote_metadata.h"
#include "common/log.h"
#include "common/options.h"
#include "server/io_server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

dpfs::Status RegisterSelf(const std::string& metadb_dir,
                          std::size_t metadb_shards,
                          const dpfs::client::ServerInfo& info) {
  using namespace dpfs;
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<metadb::ShardedDatabase> db,
                        metadb::ShardedDatabase::Open(metadb_dir,
                                                      metadb_shards));
  std::shared_ptr<metadb::ShardedDatabase> shared = std::move(db);
  DPFS_ASSIGN_OR_RETURN(auto metadata,
                        client::MetadataManager::Attach(shared));
  // Replace any stale registration for this name (e.g. after a restart on a
  // new ephemeral port).
  (void)metadata->UnregisterServer(info.name);
  return metadata->RegisterServer(info);
}

dpfs::Status RegisterSelfRemote(const std::string& metad_endpoint,
                                const dpfs::client::ServerInfo& info) {
  using namespace dpfs;
  DPFS_ASSIGN_OR_RETURN(const net::Endpoint endpoint,
                        net::Endpoint::Parse(metad_endpoint));
  DPFS_ASSIGN_OR_RETURN(auto metadata,
                        client::RemoteMetadataManager::Connect(endpoint));
  (void)metadata->UnregisterServer(info.name);
  return metadata->RegisterServer(info);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpfs;
  // Liveness lines must reach log files promptly (supervisors and the
  // deployment test tail them), not sit in a block buffer until exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  SetLogLevel(LogLevel::kInfo);
  const Options opts = Options::Parse(argc, argv).value();
  if (!opts.Has("root")) {
    std::fprintf(stderr,
                 "usage: dpfsd --root DIR [--port N] [--name NAME]\n"
                 "             [--metadb DIR] [--metadb-shards N] "
                 "[--metad HOST:PORT] "
                 "[--capacity BYTES] [--performance N] [--max-sessions N]\n"
                 "             [--metrics-dump-ms N] "
                 "[--metrics-dump-path FILE] [--metrics-port N]\n");
    return 2;
  }
  if (opts.Has("metadb") && opts.Has("metad")) {
    std::fprintf(stderr,
                 "dpfsd: --metadb and --metad are mutually exclusive (the "
                 "metad owns the database)\n");
    return 2;
  }

  server::ServerOptions server_options;
  server_options.root_dir = opts.GetString("root", "");
  server_options.port = static_cast<std::uint16_t>(opts.GetInt("port", 0));
  server_options.max_sessions =
      static_cast<std::size_t>(opts.GetInt("max-sessions", 0));
  server_options.metrics_dump_interval =
      std::chrono::milliseconds(opts.GetInt("metrics-dump-ms", 0));
  server_options.metrics_dump_path = opts.GetString("metrics-dump-path", "");
  server_options.metrics_port =
      static_cast<std::uint16_t>(opts.GetInt("metrics-port", 0));

  Result<std::unique_ptr<server::IoServer>> started =
      server::IoServer::Start(std::move(server_options));
  if (!started.ok()) {
    std::fprintf(stderr, "dpfsd: %s\n", started.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<server::IoServer>& io_server = started.value();
  std::printf("dpfsd: serving %s on %s\n",
              opts.GetString("root", "").c_str(),
              io_server->endpoint().ToString().c_str());
  if (io_server->metrics_http_port() != 0) {
    std::printf("dpfsd: metrics at http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(io_server->metrics_http_port()));
  }

  if (opts.Has("metadb") || opts.Has("metad")) {
    client::ServerInfo info;
    info.name = opts.GetString(
        "name", "dpfsd-" + std::to_string(io_server->endpoint().port));
    info.endpoint = io_server->endpoint();
    info.capacity_bytes =
        static_cast<std::uint64_t>(opts.GetInt("capacity", 1ll << 30));
    info.performance =
        static_cast<std::uint32_t>(opts.GetInt("performance", 1));
    const Status registered =
        opts.Has("metad")
            ? RegisterSelfRemote(opts.GetString("metad", ""), info)
            : RegisterSelf(
                  opts.GetString("metadb", ""),
                  static_cast<std::size_t>(opts.GetInt("metadb-shards", 1)),
                  info);
    if (!registered.ok()) {
      std::fprintf(stderr, "dpfsd: registration failed: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
    std::printf("dpfsd: registered as '%s' in %s\n", info.name.c_str(),
                opts.Has("metad") ? opts.GetString("metad", "").c_str()
                                  : opts.GetString("metadb", "").c_str());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("dpfsd: shutting down (%llu requests served, %s read, %s "
              "written)\n",
              static_cast<unsigned long long>(
                  io_server->stats().requests.load()),
              std::to_string(io_server->stats().bytes_read.load()).c_str(),
              std::to_string(io_server->stats().bytes_written.load()).c_str());
  io_server->Stop();
  return 0;
}
