// The DPFS client library: the paper's API (§6) — DPFS-Open, DPFS-Read,
// DPFS-Write, DPFS-Close — plus the hint structure that selects a file level
// at creation time and derived-datatype access for non-contiguous I/O.
//
// A FileSystem instance binds a metadata database (the paper's POSTGRES) to
// a pool of TCP connections to the registered I/O servers. Many compute-node
// threads may share one FileSystem; each identifies itself with a client id
// on its FileHandle so the request-combination scheduler can stagger their
// starting servers (§4.2).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/conn_pool.h"
#include "client/datatype.h"
#include "client/metadata.h"
#include "client/remote_metadata.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "layout/plan.h"

namespace dpfs::client {

/// The hint structure (§6): everything the user knows about how the file
/// will be used, conveyed at creation.
struct CreateOptions {
  layout::FileLevel level = layout::FileLevel::kLinear;
  std::uint64_t element_size = 1;

  /// The logical array (multidim/array level; optional for linear so column
  /// access through a linear file still works, as in Fig 5).
  layout::Shape array_shape;
  /// Raw linear capacity in bytes, used when array_shape is empty.
  std::uint64_t total_bytes = 0;

  std::uint64_t brick_bytes = 64 * 1024;  // linear striping unit
  layout::Shape brick_shape;              // multidim striping unit
  std::optional<layout::HpfPattern> pattern;  // array level
  /// Array level chunk grid; empty → built from num_chunks.
  layout::Shape chunk_grid;
  std::uint64_t num_chunks = 0;

  layout::PlacementPolicy placement = layout::PlacementPolicy::kRoundRobin;
  /// "suggested number of I/O nodes by the user" (§6); 0 = every registered
  /// server.
  std::uint32_t suggested_io_nodes = 0;
  std::string owner = "dpfs";
  std::uint32_t permission = 0644;

  /// Extension (`replication`, docs/REPLICATION.md): total copies of every
  /// brick, primary included. 1 (the default) is the paper's semantics —
  /// layout, metadata rows, I/O frames and file records stay byte-identical
  /// to the unreplicated system. 0 is refused.
  std::uint32_t replication = 1;
  /// Failure domain of each server used by the file, in ListServers order
  /// (after suggested_io_nodes truncation). Empty = every server is its own
  /// domain; any other size than the server count is refused. A brick's
  /// `replication` copies land in distinct domains.
  std::vector<std::uint32_t> failure_domains;
};

/// Per-access options.
struct IoOptions {
  bool combine = true;       // §4.2 request combination
  bool rotate_start = true;  // §4.2 schedule staggering
  bool sync = false;         // fsync writes on the server
  /// true = the paper's §3.2 READ semantics (fetch whole bricks, discard the
  /// rest). false = sieve reads, a DPFS extension that fetches only the
  /// useful runs — fewer wire bytes, more fragments per request.
  bool whole_brick_reads = true;
  /// Transient-failure retries per request ("the un-handled requests have
  /// to try again later", §4.2): busy servers and refused connections are
  /// retried with linear backoff; other errors are not.
  int max_retries = 3;
  /// Upper bound on one wire request's payload: a combined request whose
  /// data exceeds this is split into several frames on the same connection
  /// (frames are capped at 1 GiB by the protocol; this also bounds peak
  /// buffering). Plan-level request counts are unaffected.
  std::uint64_t max_request_bytes = 64ull << 20;
};

/// An open DPFS file. Cheap to copy per compute-node thread; set client_id
/// to the thread's rank before issuing collective-style accesses.
struct FileHandle {
  FileRecord record;
  layout::BrickMap map;
  std::uint32_t client_id = 0;

  [[nodiscard]] const FileMeta& meta() const noexcept { return record.meta; }
};

/// Counters for one access, used by benchmarks and tests.
struct IoReport {
  std::size_t requests = 0;
  /// Of `requests`, how many carried more than one brick — i.e. how often
  /// §4.2 request combination actually fired for this access.
  std::size_t combined_requests = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t useful_bytes = 0;
  /// Retry/backoff observability (§4.2 "try again later"): attempts beyond
  /// each request's first, how many were triggered by a busy server, and
  /// the total linear-backoff sleep injected. Accumulated even when the
  /// access ultimately fails (retry exhaustion is visible).
  std::size_t retries = 0;
  std::size_t busy_retries = 0;
  std::uint64_t backoff_ms = 0;
  /// Replication extension (docs/REPLICATION.md): reads that were served by
  /// a replica rank > 0 after the preferred copy failed, and write-side
  /// replica requests that failed while the brick stayed durable on at
  /// least one other rank (the access still succeeds; the file is degraded).
  std::size_t failover_reads = 0;
  std::size_t replica_write_failures = 0;

  /// Adds every counter of `other`: a caller's total over its accesses.
  IoReport& operator+=(const IoReport& other) noexcept;
};

class FileSystem {
 public:
  /// Binds to (and initializes if needed) the metadata database
  /// (Database::Open(dir) or OpenInMemory()): the paper's embedded model.
  static Result<std::shared_ptr<FileSystem>> Connect(
      std::shared_ptr<metadb::Database> db);
  /// Remote variant (the dpfs-metad extension): namespace operations
  /// go to a dpfs-metad service instead of an embedded database, so many
  /// client processes share one mutable namespace. Each is one round trip
  /// that the metad answers from the database at call time, so a remote
  /// client sees what an embedded one would.
  static Result<std::shared_ptr<FileSystem>> ConnectRemote(
      const net::Endpoint& endpoint);

  [[nodiscard]] MetadataService& metadata() noexcept { return *metadata_; }
  /// The embedded manager, or nullptr when connected to a remote metad.
  /// Consumers that reach past the namespace API into the database itself
  /// (the shell's `sql` command, fsck, tests) must run embedded.
  [[nodiscard]] MetadataManager* embedded_metadata() noexcept {
    return embedded_;
  }
  /// The remote manager, or nullptr with embedded metadata. The shell's
  /// `metrics` command reads the metad's snapshot through it.
  [[nodiscard]] RemoteMetadataManager* remote_metadata() noexcept {
    return remote_;
  }

  // --- lifecycle (§6 API) -------------------------------------------------
  /// One metadata call, CreateFile: the metadata service places the file
  /// from `options`' hints and returns its record. No I/O server is
  /// contacted until the first write.
  Result<FileHandle> Create(const std::string& path,
                            const CreateOptions& options);
  /// DPFS-Open (§6): one LookupFile for the file's rows, then its brick
  /// map. The rows are the database's at call time, embedded or through
  /// dpfs-metad (one meta_lookup_file round trip).
  Result<FileHandle> Open(const std::string& path);
  /// DPFS-Close (§6). Handles are RAII values, so this only resets the
  /// handle; provided for API parity with the paper and for making the end
  /// of a handle's life explicit in application code.
  static void Close(FileHandle& handle) noexcept { handle = FileHandle{}; }
  /// Deletes the metadata rows in one transaction (DeleteFile), then the
  /// file's subfiles on every server, by the deleted record's subfile id.
  /// Ok once the metadata commit succeeded: a subfile that cannot be
  /// deleted is logged and counted (client.orphaned_subfiles), and Fsck
  /// reclaims it.
  Status Remove(const std::string& path);
  /// Removes a directory; with `recursive`, removes contained files (with
  /// their subfiles) and subdirectories first. The metadata service's
  /// RemoveDirectory removes only an empty directory.
  Status RemoveDirectory(const std::string& path, bool recursive);
  /// Renames a file: one metadata transaction (RenameFile). Subfiles are
  /// named by the file's immutable subfile id, so no server is involved and
  /// handles opened before the rename keep addressing the same bytes.
  Status Rename(const std::string& from, const std::string& to);

  // --- element-region access (multidim / array / linear-array files) ------
  Status WriteRegion(FileHandle& handle, const layout::Region& region,
                     ByteSpan data, const IoOptions& options = {},
                     IoReport* report = nullptr);
  Status ReadRegion(FileHandle& handle, const layout::Region& region,
                    MutableByteSpan out, const IoOptions& options = {},
                    IoReport* report = nullptr);

  // --- byte-extent access (linear files) ----------------------------------
  Status WriteBytes(FileHandle& handle, std::uint64_t offset, ByteSpan data,
                    const IoOptions& options = {}, IoReport* report = nullptr);
  Status ReadBytes(FileHandle& handle, std::uint64_t offset,
                   MutableByteSpan out, const IoOptions& options = {},
                   IoReport* report = nullptr);

  // --- derived-datatype access (linear files, §6) --------------------------
  // One plan for the whole access (docs/NONCONTIGUOUS_IO.md): every touched
  // brick appears once, so with `combine` each server gets one request,
  // and a sieve read (whole_brick_reads = false) moves only the type's
  // bytes.
  Status WriteType(FileHandle& handle, std::uint64_t base_offset,
                   const Datatype& type, ByteSpan data,
                   const IoOptions& options = {}, IoReport* report = nullptr);
  Status ReadType(FileHandle& handle, std::uint64_t base_offset,
                  const Datatype& type, MutableByteSpan out,
                  const IoOptions& options = {}, IoReport* report = nullptr);

  [[nodiscard]] ConnectionPool& connections() noexcept { return pool_; }

  /// Consistency check between the metadata database and the servers'
  /// actual subfiles. Orphans (subfiles no DPFS_FILE_ATTR row names —
  /// left by a Remove that could not reach a server) are reported and, with
  /// `repair`, removed. Every server is listed before the rows are read,
  /// so a file created during the check is never an orphan. A missing
  /// subfile is NOT an error: never-written files are legitimately absent
  /// (sparse semantics).
  struct FsckReport {
    struct Orphan {
      std::string server;
      std::string subfile;
      std::uint64_t size = 0;
    };
    std::vector<Orphan> orphans;
    std::vector<std::string> unreachable_servers;
    std::size_t files_checked = 0;
    std::size_t servers_checked = 0;
    std::size_t repaired = 0;

    [[nodiscard]] bool clean() const noexcept {
      return orphans.empty() && unreachable_servers.empty();
    }
  };
  Result<FsckReport> Fsck(bool repair = false);

 private:
  explicit FileSystem(std::unique_ptr<MetadataManager> metadata)
      : metadata_(std::move(metadata)),
        embedded_(static_cast<MetadataManager*>(metadata_.get())) {}
  explicit FileSystem(std::unique_ptr<RemoteMetadataManager> metadata)
      : metadata_(std::move(metadata)),
        remote_(static_cast<RemoteMetadataManager*>(metadata_.get())) {}

  using RunsByBrick =
      std::unordered_map<layout::BrickId, std::vector<layout::BrickRun>>;

  /// Issues the plan's requests one at a time, in plan order (the paper's
  /// client loop, §4.2). Exactly one of write_data / read_buffer is used,
  /// per plan.direction.
  Status ExecutePlan(const FileHandle& handle, const layout::ClientPlan& plan,
                     const RunsByBrick& runs, ByteSpan write_data,
                     MutableByteSpan read_buffer, const IoOptions& options,
                     IoReport* report);
  /// One client→server request with transient-failure retries (the body of
  /// the dispatch loop). Adds its retries and backoff to `access`.
  Status ExecuteOneRequest(const FileHandle& handle,
                           const layout::ServerRequest& request,
                           const RunsByBrick& runs, ByteSpan write_data,
                           MutableByteSpan read_buffer, bool is_write,
                           const IoOptions& options, IoReport& access);
  /// A single attempt of the above.
  Status TryOneRequest(const FileHandle& handle,
                       const layout::ServerRequest& request,
                       const RunsByBrick& runs, ByteSpan write_data,
                       MutableByteSpan read_buffer, bool is_write,
                       const IoOptions& options);
  /// Replication extension: executes one read request against the first
  /// rank that answers — non-suspect ranks first, retry-exhausting each,
  /// marking failed ranks' servers suspect. Counts a failover read in
  /// `access` when a rank > 0 serves the bytes.
  Status ExecuteReadWithFailover(const FileHandle& handle,
                                 const layout::ServerRequest& request,
                                 const RunsByBrick& runs,
                                 MutableByteSpan read_buffer,
                                 const IoOptions& options, IoReport& access);
  /// Suspect bookkeeping for read failover: a server that failed a request
  /// is deprioritized (not excluded) for kSuspectTtl.
  void MarkSuspect(const std::string& endpoint_key);
  [[nodiscard]] bool IsSuspect(const std::string& endpoint_key);
  /// Byte-extent access to a linear file: one PlanListAccess plan over
  /// `extents` (absolute, sorted, non-overlapping), whose bytes are packed
  /// back to back in write_data or read_buffer, per `direction`.
  Status ExecuteExtents(const FileHandle& handle,
                        const std::vector<layout::FileExtent>& extents,
                        ByteSpan write_data, MutableByteSpan read_buffer,
                        layout::IoDirection direction,
                        const IoOptions& options, IoReport* report);

  std::unique_ptr<MetadataService> metadata_;
  /// Exactly one of these aliases metadata_ (the other is nullptr).
  MetadataManager* embedded_ = nullptr;
  RemoteMetadataManager* remote_ = nullptr;
  ConnectionPool pool_;

  Mutex suspect_mu_;
  /// endpoint key ("host:port") → when the suspicion expires.
  std::map<std::string, std::chrono::steady_clock::time_point> suspects_
      DPFS_GUARDED_BY(suspect_mu_);
};

}  // namespace dpfs::client
