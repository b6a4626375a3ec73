// Path-hash sharded metadata database facade.
//
// N independent Database instances — each with its own directory, WAL,
// snapshot, and cross-process flock — behind one object, routed by an
// FNV-1a hash of the path. All rows keyed by one path land on one shard, so
// single-path transactions stay single-shard; cross-shard mutations are the
// *caller's* problem (client::MetadataManager runs an intent-record
// protocol on top — docs/METADATA_SCHEMA.md "Sharding").
//
// With num_shards == 1 the facade opens `dir` directly as a plain Database:
// the on-disk layout stays byte-identical to the unsharded engine, which
// keeps the paper's single-database semantics as the default
// (`metadb_shards` in DESIGN.md's extension list).
//
// On-disk layout for N > 1:
//   <dir>/shards       manifest, one line: "shards=<N>"
//   <dir>/shard-00/    a full Database directory per shard
//   ...
// Open fails kInvalidArgument when the manifest disagrees with the
// requested count, or when `dir` already holds an unsharded snapshot.db —
// resharding is an explicit migration (DumpSql replay), never guessed at.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "metadb/database.h"

namespace dpfs::metadb {

class ShardedDatabase {
 public:
  /// Hard cap on the shard count: enough for any realistic metadata tier,
  /// small enough that per-shard fan-out (repair scans, checkpoints) stays
  /// trivial.
  static constexpr std::size_t kMaxShards = 64;

  /// Durable sharded database rooted at `dir` (created if missing). With
  /// num_shards == 1 this is exactly Database::Open(dir). Each shard takes
  /// its own advisory lock with the same `lock_wait` semantics.
  static Result<std::unique_ptr<ShardedDatabase>> Open(
      const std::filesystem::path& dir, std::size_t num_shards,
      std::chrono::milliseconds lock_wait = std::chrono::milliseconds(5000));

  /// Volatile shards (tests, simulations) — no files, no WAL.
  static Result<std::unique_ptr<ShardedDatabase>> OpenInMemory(
      std::size_t num_shards);

  /// Wraps an already-open single Database as a 1-shard facade, so the
  /// plain engine can run the same metadata workload as Open(dir, 1) (the
  /// byte-identical layout check in tests/metadb/sharded_database_test.cpp).
  static std::unique_ptr<ShardedDatabase> Adopt(std::shared_ptr<Database> db);

  /// FNV-1a 64-bit hash of `path`, the routing function. Deterministic
  /// across processes and builds (std::hash is not); callers pass
  /// normalized absolute paths so aliases of one file agree on a shard.
  [[nodiscard]] static std::uint64_t HashPath(std::string_view path) noexcept;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t ShardForPath(std::string_view path) const noexcept {
    return static_cast<std::size_t>(HashPath(path) % shards_.size());
  }
  [[nodiscard]] Database& shard(std::size_t index) { return *shards_[index]; }
  [[nodiscard]] const std::shared_ptr<Database>& shard_ptr(
      std::size_t index) const {
    return shards_[index];
  }
  [[nodiscard]] Database& DatabaseForPath(std::string_view path) {
    return *shards_[ShardForPath(path)];
  }

  /// Fan-out of the Database knobs to every shard.
  void SetAutoCheckpoint(std::uint64_t wal_bytes);
  void SetSyncCommits(bool sync);
  Status Checkpoint();

 private:
  explicit ShardedDatabase(std::vector<std::shared_ptr<Database>> shards)
      : shards_(std::move(shards)) {}

  std::vector<std::shared_ptr<Database>> shards_;  // immutable after Open
};

}  // namespace dpfs::metadb
