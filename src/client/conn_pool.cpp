#include "client/conn_pool.h"

#include "common/failpoint.h"
#include "common/metrics.h"

namespace dpfs::client {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// acquire_us covers the whole checkout — pool lookup plus any fresh dial —
// so reconnect storms show up as a fat tail.
struct PoolMetrics {
  metrics::Counter& acquires = metrics::GetCounter("conn_pool.acquires");
  metrics::Counter& pool_hits = metrics::GetCounter("conn_pool.pool_hits");
  metrics::Counter& dials = metrics::GetCounter("conn_pool.dials");
  metrics::Counter& dial_failures =
      metrics::GetCounter("conn_pool.dial_failures");
  metrics::Counter& poisoned = metrics::GetCounter("conn_pool.poisoned");
  // Connections found peer-closed by the staleness probe (a server
  // restarted while the stream was idle or parked) and replaced by a fresh
  // dial instead of failing the caller's next request.
  metrics::Counter& redials = metrics::GetCounter("conn_pool.redials");
  metrics::Histogram& acquire_us =
      metrics::GetHistogram("conn_pool.acquire_us");
};
PoolMetrics& Metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

PooledConnection::~PooledConnection() {
  if (pool_ != nullptr && conn_ != nullptr) {
    if (poisoned_) {
      Metrics().poisoned.Add();
    } else {
      pool_->Release(std::move(conn_));
    }
  }
}

Result<PooledConnection> ConnectionPool::Acquire(
    const net::Endpoint& endpoint) {
  Metrics().acquires.Add();
  metrics::ScopedTimer timer(Metrics().acquire_us);
  // Simulates a refused/unreachable server before any pooled or fresh
  // connection is touched (kUnavailable by default, so callers retry).
  DPFS_FAILPOINT_RETURN("client.connect");
  const auto key = std::make_pair(endpoint.host, endpoint.port);
  {
    MutexLock lock(mu_);
    auto it = idle_.find(key);
    while (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<net::ServerConnection> conn =
          std::move(it->second.back());
      it->second.pop_back();
      if (conn->PeerClosed()) {
        // Stale pooled stream (the server restarted while it sat idle):
        // drop it and keep probing.
        Metrics().redials.Add();
        continue;
      }
      Metrics().pool_hits.Add();
      return PooledConnection(this, std::move(conn));
    }
  }
  Metrics().dials.Add();
  auto dialed = net::ServerConnection::Connect(endpoint);
  if (!dialed.ok()) {
    Metrics().dial_failures.Add();
    return dialed.status();
  }
  return PooledConnection(this, std::make_unique<net::ServerConnection>(
                                    std::move(dialed).value()));
}

void ConnectionPool::Release(std::unique_ptr<net::ServerConnection> conn) {
  MutexLock lock(mu_);
  const auto key =
      std::make_pair(conn->endpoint().host, conn->endpoint().port);
  idle_[key].push_back(std::move(conn));
}

void ConnectionPool::Clear() {
  MutexLock lock(mu_);
  idle_.clear();
}

std::size_t ConnectionPool::idle_count() const {
  MutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& [key, conns] : idle_) count += conns.size();
  return count;
}

}  // namespace dpfs::client
