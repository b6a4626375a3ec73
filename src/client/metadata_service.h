// The namespace-operation surface of DPFS metadata, independent of where
// the metadata lives.
//
// Two implementations exist:
//   MetadataManager       (metadata.h)        — embedded, runs SQL against a
//                                               metadb::Database in this
//                                               process. The paper's
//                                               semantics and the default.
//   RemoteMetadataManager (remote_metadata.h) — speaks the kMeta* wire
//                                               opcodes to a dpfs-metad
//                                               process that owns the
//                                               database (extension:
//                                               `metadata_endpoint`).
//
// FileSystem consumes only this interface, so the choice is a connect-time
// decision, invisible to everything above it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "layout/brick_map.h"
#include "layout/hpf.h"
#include "layout/placement.h"
#include "net/connection.h"

namespace dpfs::client {

struct ServerInfo {
  std::string name;       // e.g. "ccn40.mcs.anl.gov" in the paper
  net::Endpoint endpoint;
  std::uint64_t capacity_bytes = 0;
  std::uint32_t performance = 1;  // 1 = fastest class (§4.1)
};

/// Everything needed to address a file's bricks.
struct FileMeta {
  std::string path;  // normalized DPFS path, e.g. "/home/xhshen/dpfs.test"
  /// The file's subfile id, drawn once at create and never changed: every
  /// server stores the file's bricks under
  /// layout::ReplicaSubfileName(subfile, rank), so a rename touches no
  /// server. "/" and 32 lowercase hex digits (NewSubfileId); files from a
  /// database that named subfiles by path keep that path here.
  std::string subfile;
  std::string owner;
  std::uint32_t permission = 0644;
  std::uint64_t size_bytes = 0;
  layout::FileLevel level = layout::FileLevel::kLinear;
  std::uint64_t element_size = 1;
  layout::Shape array_shape;             // empty for raw linear streams
  std::uint64_t brick_bytes = 0;         // linear level
  layout::Shape brick_shape;             // multidim level
  std::optional<layout::HpfPattern> pattern;  // array level
  layout::Shape chunk_grid;              // array level process grid

  /// Rebuilds the BrickMap this metadata describes.
  [[nodiscard]] Result<layout::BrickMap> MakeBrickMap() const;
};

/// A fresh subfile id: "/" and 32 lowercase hex digits, 128 bits drawn from
/// the OS (getrandom), so ids do not repeat across processes.
Result<std::string> NewSubfileId();

/// A file's metadata joined with its brick placement and server info,
/// everything DPFS-Open() needs.
struct FileRecord {
  FileMeta meta;
  std::vector<ServerInfo> servers;  // index = layout::ServerId
  layout::BrickDistribution distribution;
  /// Replica placements, ranks 1..R-1 (replication extension,
  /// docs/REPLICATION.md). Empty for unreplicated files (R = 1).
  std::vector<layout::BrickDistribution> replicas;

  /// Total copies of every brick, primary included.
  [[nodiscard]] std::uint32_t replication() const noexcept {
    return 1 + static_cast<std::uint32_t>(replicas.size());
  }
  [[nodiscard]] const layout::BrickDistribution& rank_distribution(
      std::uint32_t rank) const {
    return rank == 0 ? distribution : replicas.at(rank - 1);
  }
};

class MetadataService {
 public:
  virtual ~MetadataService() = default;

  // --- DPFS_SERVER -------------------------------------------------------
  virtual Status RegisterServer(const ServerInfo& server) = 0;
  virtual Status UnregisterServer(const std::string& name) = 0;
  virtual Result<std::vector<ServerInfo>> ListServers() = 0;

  // --- files -------------------------------------------------------------
  /// Creates attribute + distribution rows and links the file into its
  /// parent directory, atomically. `meta.subfile` must be a NewSubfileId
  /// shape (kInvalidArgument otherwise). `server_names[i]` is the server
  /// holding distribution bricklist i. `replicas` carries replica ranks
  /// 1..R-1 (replication extension); each rank stores one distribution row
  /// per server, exactly like the primary.
  virtual Status CreateFile(
      const FileMeta& meta, const std::vector<std::string>& server_names,
      const layout::BrickDistribution& distribution,
      const std::vector<layout::BrickDistribution>& replicas = {}) = 0;
  /// The file's rows — all FileSystem::Open reads. MetadataManager queries
  /// the database on every call; RemoteMetadataManager may answer from its
  /// TTL cache, the client's only record cache.
  virtual Result<FileRecord> LookupFile(const std::string& path) = 0;
  virtual Status SetPermission(const std::string& path,
                               std::uint32_t permission) = 0;
  virtual Status SetOwner(const std::string& path,
                          const std::string& owner) = 0;
  /// Deletes the file's attribute + distribution rows and its directory
  /// link atomically, and returns the record it deleted, read in the same
  /// transaction. The subfiles stay on the servers:
  /// FileSystem::Remove deletes them by the returned record's subfile id.
  virtual Result<FileRecord> DeleteFile(const std::string& path) = 0;
  virtual Result<bool> FileExists(const std::string& path) = 0;
  /// Renames a file (attribute + distribution rows + directory links)
  /// atomically. Subfiles are named by the file's immutable subfile id, so
  /// this is the whole rename: no server is involved.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  // --- directories -------------------------------------------------------
  virtual Status MakeDirectory(const std::string& path) = 0;
  /// Fails on non-empty directories unless `recursive`.
  virtual Status RemoveDirectory(const std::string& path, bool recursive) = 0;
  virtual Result<bool> DirectoryExists(const std::string& path) = 0;
  struct Listing {
    std::vector<std::string> directories;  // names, not full paths
    std::vector<std::string> files;
  };
  virtual Result<Listing> ListDirectory(const std::string& path) = 0;
};

}  // namespace dpfs::client
