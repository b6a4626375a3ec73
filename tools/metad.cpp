// dpfs-metad — the standalone DPFS metadata server daemon (an
// extension; docs/METADATA_SCHEMA.md "Remote access").
//
//   dpfs-metad --metadb /shared/dpfs-meta [--port 7060]
//              [--max-sessions 0]
//
// Owns the metadata database (and its advisory flock) and serves the
// kMeta* namespace opcodes; dpfsd registers through it with --metad, and
// any number of dpfs / application clients share the namespace it exports.
// Runs until SIGINT/SIGTERM, then prints the metrics registry's text
// snapshot (docs/OBSERVABILITY.md) so the last numbers land in the log.
#include <csignal>
#include <cstdint>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/log.h"
#include "common/metrics.h"
#include "common/options.h"
#include "metad/metad.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace dpfs;
  // Liveness lines must reach log files promptly (supervisors and the
  // deployment test tail them), not sit in a block buffer until exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  SetLogLevel(LogLevel::kInfo);
  const Options opts = Options::Parse(argc, argv).value();
  constexpr std::int64_t kU16 = 0xFFFF;
  const Status flags = opts.CheckFlags(
      {{"metadb"}, {"port", kU16}, {"max-sessions", INT64_MAX}});
  if (!flags.ok() || !opts.Has("metadb")) {
    if (!flags.ok()) {
      std::fprintf(stderr, "dpfs-metad: %s\n", flags.message().c_str());
    }
    std::fprintf(stderr,
                 "usage: dpfs-metad --metadb DIR [--port N] "
                 "[--max-sessions N]\n");
    return 2;
  }

  metad::MetadOptions options;
  options.port = static_cast<std::uint16_t>(opts.GetInt("port", 0));
  options.max_sessions =
      static_cast<std::size_t>(opts.GetInt("max-sessions", 0));

  Result<std::unique_ptr<metadb::Database>> db =
      metadb::Database::Open(opts.GetString("metadb", ""));
  if (!db.ok()) {
    std::fprintf(stderr, "dpfs-metad: %s\n", db.status().ToString().c_str());
    return 1;
  }

  Result<std::unique_ptr<metad::MetadService>> started =
      metad::MetadService::Start(std::move(db).value(), options);
  if (!started.ok()) {
    std::fprintf(stderr, "dpfs-metad: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<metad::MetadService>& service = started.value();
  std::printf("dpfs-metad: serving %s on %s\n",
              opts.GetString("metadb", "").c_str(),
              service->endpoint().ToString().c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("dpfs-metad: shutting down\n");
  service->Stop();
  std::fputs(metrics::Registry::Global().TextSnapshot().c_str(), stdout);
  return 0;
}
