// The /metrics scrape endpoint (docs/OBSERVABILITY.md "Scraping"): a plain
// HTTP GET against the dedicated listener returns the registry's text
// exposition, anything else 404s, and both daemons (dpfsd's IoServer and
// dpfs-metad) wire it through their --metrics-port option.
#include "server/metrics_http.h"

#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "metad/metad.h"
#include "metadb/database.h"
#include "net/socket.h"
#include "server/io_server.h"

namespace dpfs::server {
namespace {

/// One blocking HTTP exchange against 127.0.0.1:port; returns the raw
/// response (status line + headers + body).
std::string HttpGet(std::uint16_t port, const std::string& request_line) {
  net::TcpSocket socket = net::TcpSocket::Connect("127.0.0.1", port).value();
  const std::string request = request_line + "\r\nHost: test\r\n\r\n";
  EXPECT_TRUE(
      socket
          .SendAll(ByteSpan(
              reinterpret_cast<const unsigned char*>(request.data()),
              request.size()))
          .ok());
  std::string response;
  Bytes chunk(4096);
  for (;;) {
    const Result<net::TcpSocket::SomeIo> got =
        socket.RecvSome(MutableByteSpan(chunk));
    if (!got.ok() || got.value().closed || got.value().bytes == 0) break;
    response.append(reinterpret_cast<const char*>(chunk.data()),
                    got.value().bytes);
  }
  return response;
}

TEST(MetricsHttpServerTest, ServesRegistrySnapshot) {
  auto server = MetricsHttpServer::Start(0).value();
  ASSERT_NE(server->port(), 0);
  metrics::GetCounter("test.metrics_http.canary").Add(7);

  const std::string response = HttpGet(server->port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("counter test.metrics_http.canary 7"),
            std::string::npos);
  // The scrape itself is counted and visible on the next scrape.
  const std::string again = HttpGet(server->port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(again.find("counter metrics_http.requests"), std::string::npos);
}

TEST(MetricsHttpServerTest, UnknownRoutesAre404) {
  auto server = MetricsHttpServer::Start(0).value();
  EXPECT_NE(HttpGet(server->port(), "GET /other HTTP/1.0")
                .find("HTTP/1.0 404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpGet(server->port(), "POST /metrics HTTP/1.0")
                .find("HTTP/1.0 404 Not Found"),
            std::string::npos);
}

TEST(MetricsHttpServerTest, StopUnblocksTheAcceptLoop) {
  auto server = MetricsHttpServer::Start(0).value();
  const std::uint16_t port = server->port();
  server->Stop();
  EXPECT_FALSE(net::TcpSocket::Connect("127.0.0.1", port).ok());
  server->Stop();  // idempotent
}

TEST(MetricsHttpServerTest, IoServerWiresTheEndpointThroughItsOptions) {
  TempDir dir = TempDir::Create("dpfs-mhttp").value();
  ServerOptions options;
  options.root_dir = dir.path();
  options.metrics_port = kEphemeralMetricsPort;
  auto server = IoServer::Start(std::move(options)).value();
  ASSERT_NE(server->metrics_http_port(), 0);
  const std::string response =
      HttpGet(server->metrics_http_port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  server->Stop();
  EXPECT_FALSE(
      net::TcpSocket::Connect("127.0.0.1", server->metrics_http_port()).ok());
}

TEST(MetricsHttpServerTest, DisabledByDefault) {
  TempDir dir = TempDir::Create("dpfs-mhttp-off").value();
  ServerOptions options;
  options.root_dir = dir.path();
  auto server = IoServer::Start(std::move(options)).value();
  EXPECT_EQ(server->metrics_http_port(), 0);
}

TEST(MetricsHttpServerTest, MetadWiresTheEndpointThroughItsOptions) {
  TempDir dir = TempDir::Create("dpfs-mhttp-metad").value();
  std::shared_ptr<metadb::Database> db =
      metadb::Database::Open(dir.path() / "meta").value();
  metad::MetadOptions options;
  options.metrics_port = kEphemeralMetricsPort;
  auto service = metad::MetadService::Start(db, options).value();
  ASSERT_NE(service->metrics_http_port(), 0);
  const std::string response =
      HttpGet(service->metrics_http_port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  service->Stop();
}

}  // namespace
}  // namespace dpfs::server
