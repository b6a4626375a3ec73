#include "client/brick_cache.h"

#include "common/metrics.h"

namespace dpfs::client {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
struct CacheMetrics {
  metrics::Counter& hits = metrics::GetCounter("brick_cache.hits");
  metrics::Counter& misses = metrics::GetCounter("brick_cache.misses");
  metrics::Counter& insertions = metrics::GetCounter("brick_cache.insertions");
  metrics::Counter& evictions = metrics::GetCounter("brick_cache.evictions");
  metrics::Counter& invalidations =
      metrics::GetCounter("brick_cache.invalidations");
  metrics::Gauge& used_bytes = metrics::GetGauge("brick_cache.used_bytes");
};
CacheMetrics& Metrics() {
  static CacheMetrics m;
  return m;
}
}  // namespace

std::optional<Bytes> BrickCache::Get(const std::string& file,
                                     layout::BrickId brick) {
  MutexLock lock(mu_);
  const auto it = entries_.find({file, brick});
  if (it == entries_.end()) {
    Metrics().misses.Add();
    return std::nullopt;
  }
  Metrics().hits.Add();
  lru_.erase(it->second.lru_pos);
  lru_.push_front(it->first);
  it->second.lru_pos = lru_.begin();
  return it->second.image;
}

void BrickCache::Put(const std::string& file, layout::BrickId brick,
                     Bytes image) {
  if (image.size() > capacity_bytes_) return;
  MutexLock lock(mu_);
  const Key key{file, brick};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_bytes_ -= it->second.image.size();
    Metrics().used_bytes.Sub(
        static_cast<std::int64_t>(it->second.image.size()));
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  used_bytes_ += image.size();
  Metrics().used_bytes.Add(static_cast<std::int64_t>(image.size()));
  Metrics().insertions.Add();
  lru_.push_front(key);
  entries_[key] = Entry{std::move(image), lru_.begin()};
  EvictOverBudgetLocked();
}

void BrickCache::EvictOverBudgetLocked() {
  while (used_bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Key& victim = lru_.back();
    const auto it = entries_.find(victim);
    used_bytes_ -= it->second.image.size();
    Metrics().used_bytes.Sub(
        static_cast<std::int64_t>(it->second.image.size()));
    Metrics().evictions.Add();
    entries_.erase(it);
    lru_.pop_back();
  }
}

void BrickCache::Invalidate(const std::string& file, layout::BrickId brick) {
  MutexLock lock(mu_);
  const auto it = entries_.find({file, brick});
  if (it == entries_.end()) return;
  used_bytes_ -= it->second.image.size();
  Metrics().used_bytes.Sub(static_cast<std::int64_t>(it->second.image.size()));
  Metrics().invalidations.Add();
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void BrickCache::InvalidateFile(const std::string& file) {
  MutexLock lock(mu_);
  for (auto it = entries_.lower_bound({file, 0}); it != entries_.end();) {
    if (it->first.first != file) break;
    used_bytes_ -= it->second.image.size();
    Metrics().used_bytes.Sub(
        static_cast<std::int64_t>(it->second.image.size()));
    Metrics().invalidations.Add();
    lru_.erase(it->second.lru_pos);
    it = entries_.erase(it);
  }
}

void BrickCache::Clear() {
  MutexLock lock(mu_);
  Metrics().used_bytes.Sub(static_cast<std::int64_t>(used_bytes_));
  entries_.clear();
  lru_.clear();
  used_bytes_ = 0;
}

std::uint64_t BrickCache::size_bytes() const {
  MutexLock lock(mu_);
  return used_bytes_;
}

}  // namespace dpfs::client
