// Client-side brick cache (extension).
//
// The paper leans on the *server's* local file system cache (§2 footnote);
// this adds the complementary client-side layer: whole-brick images cached
// by (file, brick) with LRU eviction by byte budget. Reads served from the
// cache skip the network entirely; writes invalidate the bricks they touch
// (write-invalidate keeps the cache trivially coherent for a single
// FileSystem instance — cross-client coherence is out of scope, as it was
// for the paper).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "layout/brick_map.h"

namespace dpfs::client {

class BrickCache {
 public:
  explicit BrickCache(std::uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached whole-brick image, refreshing its LRU position.
  std::optional<Bytes> Get(const std::string& file, layout::BrickId brick);

  /// Inserts (or replaces) a brick image; evicts LRU entries over budget.
  /// Images larger than the whole budget are not cached.
  void Put(const std::string& file, layout::BrickId brick, Bytes image);

  /// Drops one brick / every brick of a file / everything.
  void Invalidate(const std::string& file, layout::BrickId brick);
  void InvalidateFile(const std::string& file);
  void Clear();

  [[nodiscard]] std::uint64_t size_bytes() const;

 private:
  using Key = std::pair<std::string, layout::BrickId>;
  struct Entry {
    Bytes image;
    std::list<Key>::iterator lru_pos;
  };
  void EvictOverBudgetLocked() DPFS_REQUIRES(mu_);

  mutable Mutex mu_;
  const std::uint64_t capacity_bytes_;  // immutable after construction
  std::uint64_t used_bytes_ DPFS_GUARDED_BY(mu_) = 0;
  std::map<Key, Entry> entries_ DPFS_GUARDED_BY(mu_);
  std::list<Key> lru_ DPFS_GUARDED_BY(mu_);  // front = most recent
};

}  // namespace dpfs::client
