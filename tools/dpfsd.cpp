// dpfsd — the standalone DPFS I/O server daemon (the paper's "DPFS Server
// Program" that runs on each storage workstation).
//
//   dpfsd --root /var/dpfs [--port 7070] [--name host.example]
//         [--metadb /shared/dpfs-meta]
//         [--metad host:port]
//         [--capacity 536870912]
//         [--performance 1]
//         [--metrics-port 0]
//
// With --metadb, the server registers itself in the DPFS_SERVER table so
// clients can find it (re-registering replaces a stale row). With --metad,
// registration goes over the wire to a dpfs-metad process instead — the
// metad owns the database flock, so opening the directory here would
// block. Runs until SIGINT/SIGTERM, then prints the metrics registry's
// text snapshot (docs/OBSERVABILITY.md) so the last numbers land in the log.
#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <thread>

#include "client/metadata.h"
#include "client/remote_metadata.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/options.h"
#include "server/io_server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

dpfs::Status RegisterSelf(const std::string& metadb_dir,
                          const dpfs::client::ServerInfo& info) {
  using namespace dpfs;
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<metadb::Database> db,
                        metadb::Database::Open(metadb_dir));
  DPFS_ASSIGN_OR_RETURN(auto metadata,
                        client::MetadataManager::Attach(std::move(db)));
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
                 "             [--metadb DIR] [--metad HOST:PORT] "
                 "[--capacity BYTES] [--performance N] [--max-sessions N]\n"
                 "             [--metrics-port N]\n");
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
            : RegisterSelf(opts.GetString("metadb", ""), info);
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
  std::printf("dpfsd: shutting down\n");
  io_server->Stop();
  std::fputs(metrics::Registry::Global().TextSnapshot().c_str(), stdout);
  return 0;
}
