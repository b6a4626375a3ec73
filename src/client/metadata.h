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
// Thread safety: one reader/writer lock makes each namespace operation
// atomic to every other thread. A mutation holds it exclusively from its
// validation reads through its commit; a read holds it shared, so it sees
// each transaction whole or not at all.
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
#include "net/connection.h"

namespace dpfs::client {

class MetadataManager final : public MetadataService {
 public:
  /// Wraps an open database: creates the DPFS tables if missing, then
  /// upgrades older layouts in place: widens DPFS_FILE_DISTRIBUTION by
  /// `replica` and DPFS_FILE_ATTR by `subfile`, and drops the retired
  /// access-log table.
  static Result<std::unique_ptr<MetadataManager>> Attach(
      std::shared_ptr<metadb::Database> db);

  // --- DPFS_SERVER -------------------------------------------------------
  Status RegisterServer(const ServerInfo& server) override;
  Status UnregisterServer(const std::string& name) override;
  Result<std::vector<ServerInfo>> ListServers() override;

  // --- files -------------------------------------------------------------
  Result<FileRecord> CreateFile(const FileMeta& meta,
                                const PlacementHints& hints) override;
  Result<FileRecord> LookupFile(const std::string& path) override;
  Status SetPermission(const std::string& path,
                       std::uint32_t permission) override;
  Status SetOwner(const std::string& path, const std::string& owner) override;
  Result<FileRecord> DeleteFile(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  // --- directories -------------------------------------------------------
  Status MakeDirectory(const std::string& path) override;
  Status RemoveDirectory(const std::string& path) override;
  Result<bool> DirectoryExists(const std::string& path) override;
  Result<Listing> ListDirectory(const std::string& path) override;

  /// The database itself (the shell's `sql` command, fsck, tests).
  [[nodiscard]] metadb::Database& db() noexcept { return *db_; }

 private:
  explicit MetadataManager(std::shared_ptr<metadb::Database> db)
      : db_(std::move(db)) {}

  // Attach-time only, before the manager is shared.
  Status EnsureTables();
  /// Adds `column` as the last column of `table` unless it is already
  /// there; each existing row gets fill(row). metadb has no ALTER TABLE, so
  /// this is a transactional read → drop → recreate from `ddl` → re-insert.
  Status WidenTable(
      const char* table, std::string_view column, const char* ddl,
      const std::function<metadb::Value(const metadb::Row&)>& fill);

  // Each takes a normalized path.
  Result<bool> HasFile(const std::string& path) DPFS_REQUIRES_SHARED(mu_);
  Result<bool> HasDirectory(const std::string& path)
      DPFS_REQUIRES_SHARED(mu_);
  Result<FileRecord> LookupFileLocked(const std::string& path)
      DPFS_REQUIRES_SHARED(mu_);
  /// Directory-list edits: link is add-if-absent, unlink is
  /// remove-if-present; a missing directory row is a no-op. `file` selects
  /// the files vs sub_dirs column.
  Status LinkName(const std::string& dir, const std::string& name, bool file)
      DPFS_REQUIRES(mu_);
  Status UnlinkName(const std::string& dir, const std::string& name,
                    bool file) DPFS_REQUIRES(mu_);

  const std::shared_ptr<metadb::Database> db_;
  /// Exclusive for a mutation, shared for a read (see the file comment).
  SharedMutex mu_;
};

}  // namespace dpfs::client
