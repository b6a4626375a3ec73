#include "server/fd_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <vector>

#include "common/metrics.h"

namespace dpfs::server {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
struct CacheMetrics {
  metrics::Counter& hits = metrics::GetCounter("fd_cache.hits");
  metrics::Counter& misses = metrics::GetCounter("fd_cache.misses");
  metrics::Counter& evictions = metrics::GetCounter("fd_cache.evictions");
  metrics::Gauge& open_fds = metrics::GetGauge("fd_cache.open_fds");
};
CacheMetrics& Metrics() {
  static CacheMetrics m;
  return m;
}
}  // namespace

SharedFd::~SharedFd() {
  if (fd_ >= 0) ::close(fd_);
}

Result<SharedFdPtr> FdCache::Acquire(const std::string& path, bool create) {
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(path);
    if (it != entries_.end()) {
      Metrics().hits.Add();
      TouchLocked(it->second, path);
      return it->second.fd;
    }
    Metrics().misses.Add();
  }

  // Open outside the lock; opening is the slow part.
  if (create) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (ec) {
      return IoError("create subfile dirs for '" + path + "': " +
                     ec.message());
    }
  }
  const int flags = O_RDWR | (create ? O_CREAT : 0);
  const int raw = ::open(path.c_str(), flags, 0644);
  if (raw < 0) {
    if (errno == ENOENT && !create) {
      return NotFoundError("subfile '" + path + "' does not exist");
    }
    return IoErrnoError("open subfile", path);
  }
  SharedFdPtr fd = std::make_shared<SharedFd>(raw);

  // Evicted descriptors are parked here so their close() (a syscall, and
  // potentially the last ref) runs after the lock is released — nothing
  // serialized behind mu_ waits on the kernel.
  std::vector<SharedFdPtr> retired;
  {
    MutexLock lock(mu_);
    // Another thread may have raced us; keep the existing entry and let our
    // descriptor close when `fd` goes out of scope.
    const auto it = entries_.find(path);
    if (it != entries_.end()) {
      TouchLocked(it->second, path);
      return it->second.fd;
    }
    lru_.push_front(path);
    entries_[path] = Entry{fd, lru_.begin()};
    Metrics().open_fds.Add();
    while (entries_.size() > capacity_) {
      const std::string& victim = lru_.back();
      const auto victim_it = entries_.find(victim);
      retired.push_back(std::move(victim_it->second.fd));
      entries_.erase(victim_it);
      lru_.pop_back();
      Metrics().evictions.Add();
      Metrics().open_fds.Sub();
    }
  }
  return fd;
}

void FdCache::TouchLocked(Entry& entry, const std::string& path) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(path);
  entry.lru_pos = lru_.begin();
}

void FdCache::Invalidate(const std::string& path) {
  SharedFdPtr retired;  // closes after the lock is released
  MutexLock lock(mu_);
  const auto it = entries_.find(path);
  if (it != entries_.end()) {
    retired = std::move(it->second.fd);
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    Metrics().open_fds.Sub();
  }
}

void FdCache::Clear() {
  std::map<std::string, Entry> retired;  // closes unlocked
  MutexLock lock(mu_);
  Metrics().open_fds.Sub(static_cast<std::int64_t>(entries_.size()));
  retired.swap(entries_);
  lru_.clear();
}

std::size_t FdCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace dpfs::server
