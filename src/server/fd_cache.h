// LRU cache of open subfile descriptors.
//
// Every brick request used to pay an open()/close() pair; the cache keeps
// descriptors hot across requests and sessions. Descriptors are handed out
// as shared_ptr so eviction never closes a file mid-pread: the kernel fd is
// closed when the last in-flight operation drops its reference.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dpfs::server {

/// Owns one kernel fd; closes on destruction.
class SharedFd {
 public:
  explicit SharedFd(int fd) noexcept : fd_(fd) {}
  ~SharedFd();
  SharedFd(const SharedFd&) = delete;
  SharedFd& operator=(const SharedFd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

using SharedFdPtr = std::shared_ptr<SharedFd>;

class FdCache {
 public:
  /// `capacity` open descriptors are kept; least-recently-used beyond that
  /// are closed (once unreferenced).
  explicit FdCache(std::size_t capacity = 128) : capacity_(capacity) {}
  ~FdCache() { Clear(); }  // keeps the fd_cache.open_fds gauge honest
  FdCache(const FdCache&) = delete;
  FdCache& operator=(const FdCache&) = delete;

  /// Returns an fd for `path` opened read/write. With `create`, missing
  /// files (and parent directories) are created; without it, a missing file
  /// returns kNotFound so readers can synthesize zeroes.
  Result<SharedFdPtr> Acquire(const std::string& path, bool create);

  /// Drops the cache entry (delete/truncate paths call this).
  void Invalidate(const std::string& path);

  void Clear();
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    SharedFdPtr fd;
    std::list<std::string>::iterator lru_pos;
  };
  void TouchLocked(Entry& entry, const std::string& path)
      DPFS_REQUIRES(mu_);

  mutable Mutex mu_;
  const std::size_t capacity_;  // immutable after construction
  std::map<std::string, Entry> entries_ DPFS_GUARDED_BY(mu_);
  std::list<std::string> lru_ DPFS_GUARDED_BY(mu_);  // front = most recent
};

}  // namespace dpfs::server
