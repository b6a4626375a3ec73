// DPFS metadata management on top of the embedded SQL database (§5).
//
// Exactly the paper's four tables:
//   DPFS_SERVER            — one row per I/O server: name, endpoint,
//                            capacity, normalized performance number.
//   DPFS_FILE_DISTRIBUTION — one row per (file, server, replica rank): the
//                            file's path and the bricklist text
//                            ("0,2,6,..."). Rank 0 is the paper's row;
//                            ranks >= 1 exist only for replicated files
//                            (extension, docs/REPLICATION.md).
//   DPFS_DIRECTORY         — one row per directory: sub-dirs and files as
//                            comma-separated lists.
//   DPFS_FILE_ATTR         — one row per file: owner, permission, size,
//                            filelevel, striping geometry, HPF pattern, and
//                            the subfile id that names its subfiles.
//
// All multi-row mutations (file creation touches three tables) run inside a
// database transaction, which is the paper's argument for using a database
// in the first place.
//
// Sharding (extension, docs/METADATA_SCHEMA.md "Sharding"): the manager
// runs on a metadb::ShardedDatabase. A file's DPFS_FILE_ATTR and
// DPFS_FILE_DISTRIBUTION rows co-locate on its path-hash home shard; a
// directory's DPFS_DIRECTORY row lives on the directory's own shard;
// DPFS_SERVER is tiny and read-mostly, so it is replicated to every shard on
// register (lookups stay single-shard).
// Mutations spanning shards commit in ascending shard order behind a
// persisted intent record on the home shard; a crash between shard commits
// is rolled forward by the idempotent repair pass in Attach. If a
// cross-shard mutation fails mid-protocol *without* a crash (failpoint,
// disk error), the error is surfaced and the pending intent likewise waits
// for the next Attach.
//
// Thread safety: reads take no manager-level lock (each shard's SELECT path
// is reader-shared); mutations serialize per involved shard via the
// manager's shard transaction mutexes, acquired in ascending index order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client/metadata_service.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "layout/brick_map.h"
#include "layout/hpf.h"
#include "layout/placement.h"
#include "metadb/database.h"
#include "metadb/sharded_database.h"
#include "net/connection.h"

namespace dpfs::client {

class MetadataManager final : public MetadataService {
 public:
  /// Wraps an open (possibly sharded) database: creates the DPFS tables on
  /// every shard if missing, rolls forward any cross-shard intent records a
  /// crash left behind, then upgrades older layouts in place: widens
  /// DPFS_FILE_DISTRIBUTION by `replica` and DPFS_FILE_ATTR by `subfile`,
  /// and drops the retired access-log table. The upgrades wait for the
  /// repair pass because a pending intent's payload INSERTs rows of the
  /// layout that wrote it.
  static Result<std::unique_ptr<MetadataManager>> Attach(
      std::shared_ptr<metadb::ShardedDatabase> db);

  // --- DPFS_SERVER -------------------------------------------------------
  Status RegisterServer(const ServerInfo& server) override;
  Status UnregisterServer(const std::string& name) override;
  Result<std::vector<ServerInfo>> ListServers() override;
  Result<ServerInfo> LookupServer(const std::string& name) override;

  // --- files -------------------------------------------------------------
  Status CreateFile(
      const FileMeta& meta, const std::vector<std::string>& server_names,
      const layout::BrickDistribution& distribution,
      const std::vector<layout::BrickDistribution>& replicas = {}) override;
  Result<FileRecord> LookupFile(const std::string& path) override;
  Status UpdateFileSize(const std::string& path,
                        std::uint64_t size_bytes) override;
  Status SetPermission(const std::string& path,
                       std::uint32_t permission) override;
  Status SetOwner(const std::string& path, const std::string& owner) override;
  Result<FileRecord> DeleteFile(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  // --- directories -------------------------------------------------------
  Status MakeDirectory(const std::string& path) override;
  Status RemoveDirectory(const std::string& path, bool recursive) override;
  Result<bool> DirectoryExists(const std::string& path) override;
  Result<Listing> ListDirectory(const std::string& path) override;

  /// Shard 0 — the whole database when unsharded. Compatibility accessor
  /// for single-shard consumers (the shell's `sql` command, tests);
  /// cross-shard consumers iterate sharded_db() instead.
  [[nodiscard]] metadb::Database& db() noexcept { return db_->shard(0); }
  [[nodiscard]] metadb::ShardedDatabase& sharded_db() noexcept { return *db_; }

 private:
  class ShardLocks;

  explicit MetadataManager(std::shared_ptr<metadb::ShardedDatabase> db);

  [[nodiscard]] std::size_t ShardOf(std::string_view path) const {
    return db_->ShardForPath(path);
  }
  [[nodiscard]] metadb::Database& Shard(std::size_t index) {
    return db_->shard(index);
  }

  Status EnsureTables();
  /// Adds `column` as the last column of `table` on one shard unless it is
  /// already there; each existing row gets fill(row). metadb has no ALTER
  /// TABLE, so this is a transactional read → drop → recreate from `ddl` →
  /// re-insert.
  Status WidenTable(
      metadb::Database& shard, const char* table, std::string_view column,
      const char* ddl,
      const std::function<metadb::Value(const metadb::Row&)>& fill);
  /// Rolls forward every pending cross-shard intent (idempotent; called
  /// from Attach before the manager is shared, so it takes no locks).
  Status RepairIntents();
  Status ApplyIntent(const std::string& op, const std::string& src,
                     const std::string& dst, const std::string& payload);

  /// Directory-list edits, idempotent so the repair pass can re-run them:
  /// link is add-if-absent, unlink is remove-if-present; a missing
  /// directory row is a silent no-op (the row's mutation already committed
  /// or the directory is gone). `file` selects the files vs sub_dirs column.
  Status LinkName(metadb::Database& db, const std::string& dir,
                  const std::string& name, bool file);
  Status UnlinkName(metadb::Database& db, const std::string& dir,
                    const std::string& name, bool file);

  Status UpsertIntent(metadb::Database& home, const std::string& op,
                      const std::string& src, const std::string& dst,
                      const std::string& payload);
  Status DeleteIntent(metadb::Database& home, const std::string& src);
  /// Moves a renamed file's rows onto the destination home shard:
  /// delete-then-insert from the intent payload, idempotent.
  Status ApplyRenamePayload(metadb::Database& db, const std::string& dst,
                            const std::string& payload);

  std::shared_ptr<metadb::ShardedDatabase> db_;
  /// One transaction mutex per shard: Database allows a single open
  /// transaction, so writers to a shard must not interleave statements.
  /// Locked in ascending shard order (total order => no deadlock).
  std::vector<std::unique_ptr<Mutex>> shard_mu_;
};

}  // namespace dpfs::client
