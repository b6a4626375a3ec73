// The embedded metadata database: SQL front end, transactions, durability.
//
// This is DPFS's substitute for the paper's POSTGRES instance. One Database
// owns a set of tables, executes the SQL subset in sql_ast.h, and provides:
//   * atomic multi-statement transactions (Transaction below) with
//     in-memory undo and WAL-backed redo,
//   * crash recovery (committed-WAL replay, torn tails discarded),
//   * compaction (the WAL rewritten as one base transaction, atomically).
// One reader/writer lock, mu_, isolates everything. A Transaction holds it
// exclusively from its begin to its commit or rollback, and a
// ReadTransaction holds it shared across its SELECTs, so every other thread,
// whichever client it serves, sees a transaction whole or not at all.
// Execute and ExecuteStatement run one statement as a transaction of its
// own. The lock is not reentrant: a thread inside a transaction runs its
// statements through it, never through the Database.
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

  /// Parses and executes one statement as a transaction of its own: a
  /// SELECT under a shared hold of the lock, any other statement under the
  /// exclusive hold through its commit.
  Result<ResultSet> Execute(std::string_view sql) DPFS_EXCLUDES(mu_);

  /// Pre-parsed execution (skips the parser; used by hot metadata paths).
  Result<ResultSet> ExecuteStatement(const Statement& statement)
      DPFS_EXCLUDES(mu_);

  /// Compacts the WAL: rewrites it as one base transaction holding every
  /// table and row (WriteAheadLog::Rewrite), timed in metadb.compact_us.
  /// Waits for an open transaction to end; no-op (Ok) for in-memory
  /// databases. The database also compacts by itself after each commit once
  /// the log is larger than kMinCompactBytes and than twice its base, so
  /// each byte of state is rewritten O(1) times and a reopen replays a
  /// bounded log.
  Status Checkpoint() DPFS_EXCLUDES(mu_);
  static constexpr std::uint64_t kMinCompactBytes = std::uint64_t{4} << 20;

  /// Builds a non-unique secondary index on `table.column` to accelerate
  /// equality predicates. Indexes are in-memory acceleration (derived
  /// state): re-create them after reopening a durable database.
  Status CreateIndex(std::string_view table, std::string_view column)
      DPFS_EXCLUDES(mu_);

  /// Introspection.
  [[nodiscard]] std::vector<std::string> TableNames() const DPFS_EXCLUDES(mu_);
  [[nodiscard]] bool HasTable(std::string_view name) const DPFS_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t wal_size_bytes() const DPFS_EXCLUDES(mu_);

 private:
  friend class Transaction;
  friend class ReadTransaction;

  Database() = default;

  struct UndoOp;

  // All require the caller to hold mu_ (checked by the analysis).
  // ExecuteLocked runs one statement inside the open transaction; a failed
  // statement has already undone its own partial effects.
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
  // Appends the transaction's redo to the WAL (rolling back if that fails)
  // and compacts when the log has outgrown its base; ends the transaction.
  Status CommitLocked() DPFS_REQUIRES(mu_);
  void RollbackLocked() DPFS_REQUIRES(mu_);
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

  // The open transaction's redo and undo (empty between transactions).
  std::vector<WalRecord> redo_ DPFS_GUARDED_BY(mu_);
  std::vector<UndoOp> undo_ DPFS_GUARDED_BY(mu_);
};

/// One write transaction: a scope that holds the database's lock
/// exclusively from construction to destruction, so no other thread reads
/// or writes between its statements. Its statements run through it.
/// Commit() makes them durable and ends the transaction; destroyed
/// uncommitted, it rolls them back. A statement that fails leaves the
/// transaction open with that statement undone; the caller commits or,
/// usually, returns and so rolls back.
class DPFS_SCOPED_CAPABILITY Transaction {
 public:
  explicit Transaction(Database& db) DPFS_ACQUIRE(db.mu_);
  ~Transaction() DPFS_RELEASE();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Parses and runs one statement inside the transaction.
  Result<ResultSet> Execute(std::string_view sql);
  // dpfs:no-tsa(a Transaction holds db_.mu_ exclusively for its whole
  // life, so its members run under it; the analysis sees a scope's hold
  // only in the function that declares the scope)
  Result<ResultSet> ExecuteStatement(const Statement& statement)
      DPFS_NO_THREAD_SAFETY_ANALYSIS;
  /// Appends the transaction to the WAL in one frame. On failure nothing
  /// is written and the transaction is rolled back. Either way it has
  /// ended: a statement after it fails with kInternal.
  // dpfs:no-tsa(as ExecuteStatement: the transaction holds db_.mu_)
  Status Commit() DPFS_NO_THREAD_SAFETY_ANALYSIS;

 private:
  Database& db_;
  bool ended_ = false;
};

/// One read: a scope that holds the database's lock shared from
/// construction to destruction, so its SELECTs all see one committed state.
class DPFS_SCOPED_CAPABILITY ReadTransaction {
 public:
  explicit ReadTransaction(const Database& db) DPFS_ACQUIRE_SHARED(db.mu_);
  ~ReadTransaction() DPFS_RELEASE_GENERIC();
  ReadTransaction(const ReadTransaction&) = delete;
  ReadTransaction& operator=(const ReadTransaction&) = delete;

  /// Parses and runs one SELECT; any other statement is kInvalidArgument.
  Result<ResultSet> Execute(std::string_view sql) const;
  // dpfs:no-tsa(a ReadTransaction holds db_.mu_ shared for its whole life,
  // so its members run under it)
  Result<ResultSet> ExecuteStatement(const SelectStmt& select) const
      DPFS_NO_THREAD_SAFETY_ANALYSIS;

 private:
  const Database& db_;
};

}  // namespace dpfs::metadb
