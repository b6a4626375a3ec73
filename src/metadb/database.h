// The embedded metadata database: SQL front end, transactions, durability.
//
// This is DPFS's substitute for the paper's POSTGRES instance. One Database
// owns a set of tables, executes the SQL subset in sql_ast.h, and provides:
//   * atomic multi-statement transactions (BEGIN/COMMIT/ROLLBACK) with
//     in-memory undo and WAL-backed redo,
//   * crash recovery (committed-WAL replay, torn tails discarded),
//   * compaction (the WAL rewritten as one base transaction, atomically).
// All entry points are thread-safe behind one reader/writer lock: mutations
// (and transaction control) hold it exclusively; plain SELECTs, which never
// compact, run under a shared hold, so concurrent lookups no longer
// serialize. The lock covers one statement: a caller that needs a
// multi-statement transaction to look atomic to other threads serializes
// them itself (client::MetadataManager does).
#pragma once

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "metadb/sql_ast.h"
#include "metadb/table.h"
#include "metadb/wal.h"

namespace dpfs::metadb {

/// Rows returned by SELECT (or affected-count for mutations).
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::size_t affected_rows = 0;

  [[nodiscard]] bool empty() const noexcept { return rows.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return rows.size(); }

  /// Typed cell accessors by column name; error on unknown column or type.
  [[nodiscard]] Result<std::int64_t> GetInt(std::size_t row,
                                            std::string_view column) const;
  [[nodiscard]] Result<double> GetDouble(std::size_t row,
                                         std::string_view column) const;
  [[nodiscard]] Result<std::string> GetText(std::size_t row,
                                            std::string_view column) const;
  [[nodiscard]] Result<Value> GetValue(std::size_t row,
                                       std::string_view column) const;

  /// ASCII table rendering for the shell and debugging.
  [[nodiscard]] std::string ToString() const;
};

class Database {
 public:
  /// Durable database rooted at `dir` (created if missing), kept in one
  /// file, `wal.log` (wal.h), beside the `lock` file. Recovers committed
  /// state on open by replaying the log: its base whole (kDataLoss, with
  /// nothing written, when the base is damaged), then the committed
  /// appends, with a torn tail discarded. A directory holding a
  /// `snapshot.db` (written only by the retired snapshot checkpoint) or in
  /// the retired sharded layout (a `shards` manifest beside per-shard
  /// directories) is refused with kInvalidArgument and left untouched.
  ///
  /// The database is embedded, single-process: Open takes an exclusive
  /// advisory lock (`<dir>/lock`) held until destruction, waiting up to
  /// `lock_wait` for another process to release it (kUnavailable on
  /// timeout). Short-lived openers — dpfsd registration, dpfs CLI commands —
  /// therefore serialize instead of corrupting each other's WAL.
  static Result<std::unique_ptr<Database>> Open(
      const std::filesystem::path& dir,
      std::chrono::milliseconds lock_wait = std::chrono::milliseconds(5000));

  /// Power-failure durability: fdatasync the WAL on every commit. Default
  /// off (process-crash durable only). No-op on in-memory databases.
  void SetSyncCommits(bool sync);

  /// Volatile database (tests, simulations) — no files, no WAL.
  static std::unique_ptr<Database> OpenInMemory();

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses and executes one statement. BEGIN/COMMIT/ROLLBACK control the
  /// explicit transaction; other statements auto-commit when outside one.
  Result<ResultSet> Execute(std::string_view sql);

  /// Pre-parsed execution (skips the parser; used by hot metadata paths).
  Result<ResultSet> ExecuteStatement(const Statement& statement);

  /// Compacts the WAL: rewrites it as one base transaction holding every
  /// table and row (WriteAheadLog::Rewrite), timed in metadb.compact_us.
  /// Refused inside a transaction; no-op (Ok) for in-memory databases. The
  /// database also compacts by itself after a statement outside an explicit
  /// transaction (every COMMIT included) once the log is larger than
  /// kMinCompactBytes and than twice its base, so each byte of state is
  /// rewritten O(1) times and a reopen replays a bounded log.
  Status Checkpoint();
  static constexpr std::uint64_t kMinCompactBytes = std::uint64_t{4} << 20;

  /// Builds a non-unique secondary index on `table.column` to accelerate
  /// equality predicates. Indexes are in-memory acceleration (derived
  /// state): re-create them after reopening a durable database.
  Status CreateIndex(std::string_view table, std::string_view column);

  /// Introspection.
  [[nodiscard]] std::vector<std::string> TableNames() const;
  [[nodiscard]] bool HasTable(std::string_view name) const;
  [[nodiscard]] bool in_transaction() const;
  [[nodiscard]] std::uint64_t wal_size_bytes() const;

 private:
  Database() = default;

  struct UndoOp;

  // All require the caller to hold mu_ (checked by the analysis).
  Result<ResultSet> ExecuteLocked(const Statement& statement)
      DPFS_REQUIRES(mu_);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt)
      DPFS_REQUIRES(mu_);
  Result<ResultSet> ExecuteDropTable(const DropTableStmt& stmt)
      DPFS_REQUIRES(mu_);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt) DPFS_REQUIRES(mu_);
  // SELECT mutates nothing, so a shared (reader) hold suffices — the
  // exclusive hold inside ExecuteLocked satisfies it too.
  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt) const
      DPFS_REQUIRES_SHARED(mu_);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt) DPFS_REQUIRES(mu_);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt) DPFS_REQUIRES(mu_);
  Status BeginLocked() DPFS_REQUIRES(mu_);
  Status CommitLocked() DPFS_REQUIRES(mu_);
  Status RollbackLocked() DPFS_REQUIRES(mu_);
  Result<Table*> FindTable(std::string_view name) DPFS_REQUIRES(mu_);
  Result<const Table*> FindTable(std::string_view name) const
      DPFS_REQUIRES_SHARED(mu_);
  // dpfs:no-tsa(open-time only: runs on the one thread building the
  // database, before it is shared, so no lock is held)
  Status ApplyWalRecord(const WalRecord& record)
      DPFS_NO_THREAD_SAFETY_ANALYSIS;
  Status CompactLocked() DPFS_REQUIRES(mu_);
  void RecordRedo(WalRecord record) DPFS_REQUIRES(mu_);
  void RecordUndo(UndoOp op) DPFS_REQUIRES(mu_);

  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_
      DPFS_GUARDED_BY(mu_);             // key: lower name
  std::optional<WriteAheadLog> wal_
      DPFS_GUARDED_BY(mu_);             // nullopt for in-memory
  int lock_fd_ = -1;                    // exclusive cross-process lock
  std::uint64_t next_txn_id_ DPFS_GUARDED_BY(mu_) = 1;

  // Active transaction state (empty when not in a transaction).
  bool in_txn_ DPFS_GUARDED_BY(mu_) = false;
  bool implicit_txn_ DPFS_GUARDED_BY(mu_) = false;
  std::vector<WalRecord> redo_ DPFS_GUARDED_BY(mu_);
  std::vector<UndoOp> undo_ DPFS_GUARDED_BY(mu_);
};

}  // namespace dpfs::metadb
