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
//                                               database (the
//                                               dpfs-metad extension).
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
#include "layout/replication.h"
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
  /// The file's subfile id, drawn by the metadata service at create and
  /// never changed: every server stores the file's bricks under
  /// layout::ReplicaSubfileName(subfile, rank), so a rename touches no
  /// server. "/" and 32 lowercase hex digits; files from a database that
  /// named subfiles by path keep that path here.
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

/// Where a new file's bricks go: CreateOptions' placement hints (§6).
struct PlacementHints {
  layout::PlacementPolicy policy = layout::PlacementPolicy::kRoundRobin;
  /// Place on the first this-many servers of ListServers; 0 = every
  /// registered server.
  std::uint32_t suggested_io_nodes = 0;
  /// Copies of every brick and their failure domains (docs/REPLICATION.md).
  layout::ReplicationSpec replication;
};

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
  /// Creates a file with `meta`'s geometry in one transaction: reads
  /// DPFS_SERVER, draws the subfile id (`meta.subfile` is ignored), places
  /// every rank with layout::ReplicatedDistribution::Create, writes the
  /// attribute and distribution rows and links the file into its parent
  /// directory. Returns the record LookupFile returns next. A path that
  /// names a file or a directory is refused with kAlreadyExists. A file
  /// whose ranks' bricklists could not travel in one reply frame is refused
  /// with kInvalidArgument before anything is placed.
  virtual Result<FileRecord> CreateFile(const FileMeta& meta,
                                        const PlacementHints& hints) = 0;
  /// The file's rows — all FileSystem::Open reads. Every call reads the
  /// database: MetadataManager in this process, RemoteMetadataManager
  /// through one meta_lookup_file round trip, whose metad normalizes the
  /// path.
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
  /// this is the whole rename: no server is involved. A missing source is
  /// kNotFound, even when `to` names it too; renaming a file onto itself
  /// changes nothing.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  // --- directories -------------------------------------------------------
  virtual Status MakeDirectory(const std::string& path) = 0;
  /// Fails on a non-empty directory: FileSystem::RemoveDirectory is the
  /// recursive delete, since only it can delete the files' subfiles.
  virtual Status RemoveDirectory(const std::string& path) = 0;
  virtual Result<bool> DirectoryExists(const std::string& path) = 0;
  struct Listing {
    std::vector<std::string> directories;  // names, not full paths
    std::vector<std::string> files;
  };
  virtual Result<Listing> ListDirectory(const std::string& path) = 0;
};

}  // namespace dpfs::client
