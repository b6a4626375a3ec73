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
// Every namespace mutation (file creation touches three tables) is one
// database transaction, from its validation reads to its commit, which is
// the paper's argument for using a database in the first place.
//
// Thread safety: the manager keeps no lock of its own. A mutation runs in a
// metadb::Transaction and a multi-statement read (LookupFile) in a
// metadb::ReadTransaction, which hold the database's one lock, so every
// other thread, through this manager or another on the same database, sees
// each operation whole or not at all. A call that is one statement runs as
// one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client/metadata_service.h"
#include "common/status.h"
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
  /// access-log table, all in one transaction.
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

  const std::shared_ptr<metadb::Database> db_;
};

}  // namespace dpfs::client
