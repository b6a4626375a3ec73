// Plain-HTTP scrape endpoint for the process-wide metrics registry
// (docs/OBSERVABILITY.md "Scraping"): `GET /metrics` returns the
// Registry::Global() text snapshot, so Prometheus-style collectors and
// plain curl can observe a dpfsd / dpfs-metad without speaking the DPFS
// wire protocol. Enabled by ServerOptions::metrics_port /
// MetadOptions::metrics_port (the --metrics-port flag); off by default.
//
// Thread model: one dedicated blocking accept thread, one request per
// connection (HTTP/1.0 close semantics). This listener is deliberately
// outside the servers' frame transport — a slow scraper must never hold a
// session slot or sit on the data path — so none of the deep-lint
// reactor-root rules apply to it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/status.h"
#include "net/socket.h"

namespace dpfs::server {

class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  static Result<std::unique_ptr<MetricsHttpServer>> Start(std::uint16_t port);

  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and joins the serve thread. Idempotent.
  void Stop();

 private:
  explicit MetricsHttpServer(net::TcpListener listener);

  void ServeLoop();

  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace dpfs::server
