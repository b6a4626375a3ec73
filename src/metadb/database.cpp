#include "metadb/database.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <cstdio>
#include <ctime>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "metadb/sql_parser.h"

namespace dpfs::metadb {

// ---------------------------------------------------------------------------
// ResultSet

namespace {

Result<std::size_t> FindColumn(const std::vector<std::string>& columns,
                               std::string_view name) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i], name)) return i;
  }
  return NotFoundError("result set has no column '" + std::string(name) + "'");
}

// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// execute_us times each statement under the lock (a transaction waits for
// the lock when it begins); commit_us times CommitLocked, which is
// dominated by the WAL append; compact_us times each completed compaction,
// so its count is theirs.
struct MetadbMetricsT {
  metrics::Counter& statements = metrics::GetCounter("metadb.statements");
  metrics::Counter& commits = metrics::GetCounter("metadb.commits");
  metrics::Counter& rollbacks = metrics::GetCounter("metadb.rollbacks");
  metrics::Histogram& execute_us = metrics::GetHistogram("metadb.execute_us");
  metrics::Histogram& commit_us = metrics::GetHistogram("metadb.commit_us");
  metrics::Histogram& compact_us = metrics::GetHistogram("metadb.compact_us");
};
MetadbMetricsT& MetadbMetrics() {
  static MetadbMetricsT m;
  return m;
}

}  // namespace

Result<Value> ResultSet::GetValue(std::size_t row,
                                  std::string_view column) const {
  if (row >= rows.size()) {
    return OutOfRangeError("row index " + std::to_string(row) +
                           " out of range");
  }
  DPFS_ASSIGN_OR_RETURN(const std::size_t col, FindColumn(columns, column));
  return rows[row].at(col);
}

Result<std::int64_t> ResultSet::GetInt(std::size_t row,
                                       std::string_view column) const {
  DPFS_ASSIGN_OR_RETURN(const Value v, GetValue(row, column));
  if (v.type() != ValueType::kInt) {
    return InvalidArgumentError("column '" + std::string(column) +
                                "' is not int");
  }
  return v.AsInt();
}

Result<double> ResultSet::GetDouble(std::size_t row,
                                    std::string_view column) const {
  DPFS_ASSIGN_OR_RETURN(const Value v, GetValue(row, column));
  return v.ToDouble();
}

Result<std::string> ResultSet::GetText(std::size_t row,
                                       std::string_view column) const {
  DPFS_ASSIGN_OR_RETURN(const Value v, GetValue(row, column));
  if (v.type() != ValueType::kText) {
    return InvalidArgumentError("column '" + std::string(column) +
                                "' is not text");
  }
  return v.AsText();
}

std::string ResultSet::ToString() const {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::string text = row[c].type() == ValueType::kText
                             ? row[c].AsText()
                             : row[c].ToString();
      if (c < widths.size()) widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  const auto append_row = [&](const std::vector<std::string>& line) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      out += line[c];
      if (c < widths.size()) {
        out.append(widths[c] > line[c].size() ? widths[c] - line[c].size() : 0,
                   ' ');
      }
      out += (c + 1 == line.size()) ? "\n" : "  ";
    }
  };
  append_row(columns);
  for (const auto& line : cells) append_row(line);
  return out;
}

// ---------------------------------------------------------------------------
// Undo log

struct Database::UndoOp {
  enum class Kind : std::uint8_t {
    kEraseInserted,    // undo insert
    kRestoreRow,       // undo update/delete
    kDropCreated,      // undo create table
    kRestoreTable,     // undo drop table
  };
  Kind kind;
  std::string table;
  RowId row_id = 0;
  Row row;                         // kRestoreRow (the old image)
  bool was_delete = false;         // kRestoreRow: re-insert vs overwrite
  std::unique_ptr<Table> dropped;  // kRestoreTable
};

// ---------------------------------------------------------------------------
// Open / recovery

namespace {

/// Acquires an exclusive flock on <dir>/lock, polling until `wait` elapses.
/// The holder records "pid=<pid> since=<unix-seconds>" in the lock file so a
/// timed-out contender can name it — a bare "locked by another process" made
/// the ASan-widened deployment startup race needlessly hard to debug.
Result<int> AcquireDirLock(const std::filesystem::path& dir,
                           std::chrono::milliseconds wait) {
  const std::string lock_path = (dir / "lock").string();
  const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) return IoErrnoError("open db lock", lock_path);
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (true) {
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
      char owner[64];
      const int n =
          std::snprintf(owner, sizeof(owner), "pid=%ld since=%lld\n",
                        static_cast<long>(::getpid()),
                        static_cast<long long>(::time(nullptr)));
      if (n > 0) {
        (void)::ftruncate(fd, 0);
        (void)::pwrite(fd, owner, static_cast<std::size_t>(n), 0);
      }
      return fd;
    }
    if (errno != EWOULDBLOCK && errno != EINTR) {
      ::close(fd);
      return IoErrnoError("lock db", lock_path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      char owner[64];
      const ssize_t n = ::pread(fd, owner, sizeof(owner) - 1, 0);
      ::close(fd);
      std::string holder;
      if (n > 0) {
        owner[n] = '\0';
        holder = std::string(TrimWhitespace(owner));
      }
      return UnavailableError(
          "database '" + dir.string() + "' is locked by another process" +
          (holder.empty() ? "" : " (holder: " + holder + ")"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// The "<N>" of a retired sharded layout's "<dir>/shards" manifest
/// ("shards=<N>"), or nullopt when `dir` has no manifest.
std::optional<std::string> RetiredShardCount(
    const std::filesystem::path& dir) {
  std::FILE* in = std::fopen((dir / "shards").string().c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  char buf[64];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, in);
  std::fclose(in);
  buf[n] = '\0';
  constexpr std::string_view kPrefix = "shards=";
  std::string_view text = TrimWhitespace(buf);
  if (text.starts_with(kPrefix)) text.remove_prefix(kPrefix.size());
  return std::string(text);
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(
    const std::filesystem::path& dir, std::chrono::milliseconds lock_wait) {
  // The retired path-hash-sharded layout kept its tables in per-shard
  // directories beside a "shards=<N>" manifest. Opening `dir` itself would
  // start an empty namespace beside them, so refuse before writing anything.
  if (const std::optional<std::string> shards = RetiredShardCount(dir)) {
    return InvalidArgumentError(
        "database '" + dir.string() + "' uses the retired sharded layout (" +
        *shards +
        " shards); one database cannot open it, and merging shards into one "
        "is not supported");
  }
  // Only the retired snapshot checkpoint wrote snapshot.db, and it left the
  // state split between that file and wal.log; replaying wal.log alone
  // would open a namespace missing the snapshot's rows.
  if (std::filesystem::exists(dir / "snapshot.db")) {
    return InvalidArgumentError(
        "database '" + dir.string() +
        "' holds a snapshot.db, written by the retired snapshot checkpoint; "
        "this version keeps the database in wal.log alone and cannot read it");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return IoError("create db dir '" + dir.string() + "': " + ec.message());

  std::unique_ptr<Database> db(new Database());
  DPFS_ASSIGN_OR_RETURN(db->lock_fd_, AcquireDirLock(dir, lock_wait));
  // Replay runs on this thread before the database is shared, so it takes
  // no lock (ApplyWalRecord is exempt from the analysis for that reason).
  std::uint64_t max_txn_id = 0;
  DPFS_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::Open(
          dir / "wal.log",
          [&db](const WalRecord& record) { return db->ApplyWalRecord(record); },
          &max_txn_id));
  // The remaining mu_-guarded fields are set under the (uncontended) lock,
  // which keeps the analysis sound here.
  WriterMutexLock lock(db->mu_);
  db->wal_.emplace(std::move(wal));
  db->next_txn_id_ = max_txn_id + 1;
  return db;
}

std::unique_ptr<Database> Database::OpenInMemory() {
  return std::unique_ptr<Database>(new Database());
}

Database::~Database() {
  // Close the WAL before releasing the cross-process lock so the next
  // opener never sees a file we are still appending to.
  wal_.reset();
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

Status Database::ApplyWalRecord(const WalRecord& record) {
  switch (record.kind) {
    case WalRecordKind::kCreateTable: {
      const std::string key = ToLower(record.table);
      if (tables_.contains(key)) {
        return AlreadyExistsError("replay: table exists: " + record.table);
      }
      tables_[key] = std::make_unique<Table>(record.table, record.schema);
      return Status::Ok();
    }
    case WalRecordKind::kDropTable:
      if (tables_.erase(ToLower(record.table)) == 0) {
        return NotFoundError("replay: no table " + record.table);
      }
      return Status::Ok();
    case WalRecordKind::kInsert: {
      DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(record.table));
      return table->InsertWithId(record.row_id, record.row);
    }
    case WalRecordKind::kUpdate: {
      DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(record.table));
      return table->UpdateRow(record.row_id, record.row);
    }
    case WalRecordKind::kDelete: {
      DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(record.table));
      return table->Erase(record.row_id);
    }
    default:
      return InternalError("replay: unexpected record kind");
  }
}

Status Database::CompactLocked() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<WalRecord> base;
  for (const auto& [key, table] : tables_) {
    WalRecord create;
    create.kind = WalRecordKind::kCreateTable;
    create.table = table->name();
    create.schema = table->schema();
    base.push_back(std::move(create));
    for (const auto& [row_id, row] : table->rows()) {
      WalRecord insert;
      insert.kind = WalRecordKind::kInsert;
      insert.table = table->name();
      insert.row_id = row_id;
      insert.row = row;
      base.push_back(std::move(insert));
    }
  }
  DPFS_RETURN_IF_ERROR(wal_->Rewrite(base));
  MetadbMetrics().compact_us.Observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::Ok();
}

Status Database::Checkpoint() {
  WriterMutexLock lock(mu_);
  if (!wal_.has_value()) return Status::Ok();  // in-memory
  return CompactLocked();
}

void Database::SetSyncCommits(bool sync) {
  WriterMutexLock lock(mu_);
  if (wal_.has_value()) wal_->SetSyncCommits(sync);
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  WriterMutexLock lock(mu_);
  DPFS_ASSIGN_OR_RETURN(Table * found, FindTable(table));
  return found->CreateIndex(column);
}

// ---------------------------------------------------------------------------
// Execution

Result<ResultSet> Database::Execute(std::string_view sql) {
  DPFS_ASSIGN_OR_RETURN(const Statement statement, ParseStatement(sql));
  return ExecuteStatement(statement);
}

Result<ResultSet> Database::ExecuteStatement(const Statement& statement) {
  // A SELECT mutates nothing, so it shares the lock with other readers.
  if (const auto* select = std::get_if<SelectStmt>(&statement)) {
    const ReadTransaction read(*this);
    return read.ExecuteStatement(*select);
  }
  Transaction txn(*this);
  DPFS_ASSIGN_OR_RETURN(ResultSet result, txn.ExecuteStatement(statement));
  DPFS_RETURN_IF_ERROR(txn.Commit());
  return result;
}

Result<Table*> Database::FindTable(std::string_view name) {
  const auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return NotFoundError("no such table '" + std::string(name) + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::FindTable(std::string_view name) const {
  const auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return NotFoundError("no such table '" + std::string(name) + "'");
  }
  return it->second.get();
}

void Database::RecordRedo(WalRecord record) {
  record.txn_id = next_txn_id_;
  redo_.push_back(std::move(record));
}

void Database::RecordUndo(UndoOp op) { undo_.push_back(std::move(op)); }

Status Database::CommitLocked() {
  MetadbMetrics().commits.Add();
  {
    metrics::ScopedTimer timer(MetadbMetrics().commit_us);
    if (wal_.has_value() && !redo_.empty()) {
      // Refused durability before any WAL byte is written: the commit fails
      // cleanly and the in-memory state rolls back.
      if (const auto fp = failpoint::Check("metadb.commit");
          fp.has_value() && fp->action == failpoint::Action::kReturnError) {
        RollbackLocked();
        return fp->status;
      }
      const Status appended = wal_->AppendTransaction(next_txn_id_, redo_);
      if (!appended.ok()) {
        // Durability failed: roll the in-memory state back and surface the
        // error. The log now refuses every later commit until a reopen, so
        // none is acknowledged behind a partial or unsynced frame.
        RollbackLocked();
        return appended;
      }
    }
    ++next_txn_id_;
    redo_.clear();
    undo_.clear();
  }
  // Compact once the log outgrows its floor and twice its base. The
  // transaction has committed either way, and a failed compaction leaves a
  // log that holds it; the next commit retries.
  if (wal_.has_value() && wal_->size_bytes() > kMinCompactBytes &&
      wal_->size_bytes() > 2 * wal_->base_bytes()) {
    if (const Status compacted = CompactLocked(); !compacted.ok()) {
      DPFS_LOG_WARN << "metadb compaction failed: " << compacted.ToString();
    }
  }
  return Status::Ok();
}

void Database::RollbackLocked() {
  MetadbMetrics().rollbacks.Add();
  // Undo in reverse order.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    UndoOp& op = *it;
    switch (op.kind) {
      case UndoOp::Kind::kEraseInserted: {
        const Result<Table*> table = FindTable(op.table);
        if (table.ok()) (void)table.value()->Erase(op.row_id);
        break;
      }
      case UndoOp::Kind::kRestoreRow: {
        const Result<Table*> table = FindTable(op.table);
        if (table.ok()) {
          if (op.was_delete) {
            (void)table.value()->InsertWithId(op.row_id, std::move(op.row));
          } else {
            (void)table.value()->UpdateRow(op.row_id, std::move(op.row));
          }
        }
        break;
      }
      case UndoOp::Kind::kDropCreated:
        tables_.erase(ToLower(op.table));
        break;
      case UndoOp::Kind::kRestoreTable:
        tables_[ToLower(op.table)] = std::move(op.dropped);
        break;
    }
  }
  redo_.clear();
  undo_.clear();
}

Result<ResultSet> Database::ExecuteLocked(const Statement& statement) {
  if (const auto* stmt = std::get_if<CreateTableStmt>(&statement)) {
    return ExecuteCreateTable(*stmt);
  }
  if (const auto* stmt = std::get_if<DropTableStmt>(&statement)) {
    return ExecuteDropTable(*stmt);
  }
  if (const auto* stmt = std::get_if<InsertStmt>(&statement)) {
    return ExecuteInsert(*stmt);
  }
  if (const auto* stmt = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(*stmt);
  }
  if (const auto* stmt = std::get_if<UpdateStmt>(&statement)) {
    return ExecuteUpdate(*stmt);
  }
  if (const auto* stmt = std::get_if<DeleteStmt>(&statement)) {
    return ExecuteDelete(*stmt);
  }
  return InternalError("unhandled statement kind");
}

Result<ResultSet> Database::ExecuteCreateTable(const CreateTableStmt& stmt) {
  const std::string key = ToLower(stmt.table);
  if (tables_.contains(key)) {
    if (stmt.if_not_exists) return ResultSet{};
    return AlreadyExistsError("table '" + stmt.table + "' already exists");
  }
  DPFS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(stmt.columns));
  tables_[key] = std::make_unique<Table>(stmt.table, schema);
  WalRecord redo;
  redo.kind = WalRecordKind::kCreateTable;
  redo.table = stmt.table;
  redo.schema = std::move(schema);
  RecordRedo(std::move(redo));
  UndoOp undo;
  undo.kind = UndoOp::Kind::kDropCreated;
  undo.table = stmt.table;
  RecordUndo(std::move(undo));
  return ResultSet{};
}

Result<ResultSet> Database::ExecuteDropTable(const DropTableStmt& stmt) {
  const std::string key = ToLower(stmt.table);
  const auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (stmt.if_exists) return ResultSet{};
    return NotFoundError("no such table '" + stmt.table + "'");
  }
  UndoOp undo;
  undo.kind = UndoOp::Kind::kRestoreTable;
  undo.table = stmt.table;
  undo.dropped = std::move(it->second);
  tables_.erase(it);
  RecordUndo(std::move(undo));
  WalRecord redo;
  redo.kind = WalRecordKind::kDropTable;
  redo.table = stmt.table;
  RecordRedo(std::move(redo));
  return ResultSet{};
}

Result<ResultSet> Database::ExecuteInsert(const InsertStmt& stmt) {
  DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  const Schema& schema = table->schema();

  // Map the statement's column list (or schema order) to indices.
  std::vector<std::size_t> indices;
  if (stmt.columns.empty()) {
    indices.resize(schema.num_columns());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  } else {
    for (const std::string& name : stmt.columns) {
      DPFS_ASSIGN_OR_RETURN(const std::size_t index,
                            schema.ColumnIndex(name));
      indices.push_back(index);
    }
  }

  std::vector<RowId> inserted;  // for partial rollback on failure
  for (const std::vector<Value>& values : stmt.rows) {
    if (values.size() != indices.size()) {
      // dpfs:unchecked(undoing rows this statement just inserted; Erase
      // of a known-present row cannot fail)
      for (const RowId id : inserted) (void)table->Erase(id);
      return InvalidArgumentError(
          "INSERT arity mismatch: " + std::to_string(values.size()) +
          " values for " + std::to_string(indices.size()) + " columns");
    }
    Row row(schema.num_columns(), Value::Null());
    for (std::size_t i = 0; i < indices.size(); ++i) row[indices[i]] = values[i];
    const Result<RowId> id = table->Insert(std::move(row));
    if (!id.ok()) {
      // dpfs:unchecked(partial-insert rollback; Erase of a row this
      // statement inserted cannot fail)
      for (const RowId prev : inserted) (void)table->Erase(prev);
      return id.status();
    }
    inserted.push_back(id.value());
  }
  for (const RowId id : inserted) {
    DPFS_ASSIGN_OR_RETURN(Row stored, table->Get(id));
    WalRecord redo;
    redo.kind = WalRecordKind::kInsert;
    redo.table = table->name();
    redo.row_id = id;
    redo.row = std::move(stored);
    RecordRedo(std::move(redo));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kEraseInserted;
    undo.table = table->name();
    undo.row_id = id;
    RecordUndo(std::move(undo));
  }
  ResultSet result;
  result.affected_rows = inserted.size();
  return result;
}

Result<ResultSet> Database::ExecuteSelect(const SelectStmt& stmt) const {
  DPFS_ASSIGN_OR_RETURN(const Table* table, FindTable(stmt.table));
  const Schema& schema = table->schema();
  DPFS_ASSIGN_OR_RETURN(auto matches, table->Scan(stmt.where.get()));

  if (stmt.count_only) {
    ResultSet result;
    result.columns = {"count"};
    result.rows.push_back({Value(static_cast<std::int64_t>(matches.size()))});
    result.affected_rows = 1;
    return result;
  }

  // Projection indices.
  std::vector<std::size_t> projection;
  ResultSet result;
  if (stmt.columns.empty()) {
    projection.resize(schema.num_columns());
    for (std::size_t i = 0; i < projection.size(); ++i) {
      projection[i] = i;
      result.columns.push_back(schema.columns()[i].name);
    }
  } else {
    for (const std::string& name : stmt.columns) {
      DPFS_ASSIGN_OR_RETURN(const std::size_t index, schema.ColumnIndex(name));
      projection.push_back(index);
      result.columns.push_back(schema.columns()[index].name);
    }
  }

  if (stmt.order_by.has_value()) {
    DPFS_ASSIGN_OR_RETURN(const std::size_t sort_col,
                          schema.ColumnIndex(stmt.order_by->column));
    const bool descending = stmt.order_by->descending;
    std::stable_sort(matches.begin(), matches.end(),
                     [sort_col, descending](const auto& a, const auto& b) {
                       const Result<int> cmp =
                           a.second[sort_col].Compare(b.second[sort_col]);
                       const int c = cmp.ok() ? cmp.value() : 0;
                       return descending ? c > 0 : c < 0;
                     });
  }

  const std::size_t limit =
      stmt.limit.value_or(std::numeric_limits<std::size_t>::max());
  for (const auto& [id, row] : matches) {
    if (result.rows.size() >= limit) break;
    Row projected;
    projected.reserve(projection.size());
    for (const std::size_t index : projection) projected.push_back(row[index]);
    result.rows.push_back(std::move(projected));
  }
  result.affected_rows = result.rows.size();
  return result;
}

Result<ResultSet> Database::ExecuteUpdate(const UpdateStmt& stmt) {
  DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  const Schema& schema = table->schema();

  std::vector<std::pair<std::size_t, Value>> assignments;
  for (const auto& [name, value] : stmt.assignments) {
    DPFS_ASSIGN_OR_RETURN(const std::size_t index, schema.ColumnIndex(name));
    assignments.emplace_back(index, value);
  }

  DPFS_ASSIGN_OR_RETURN(const auto matches, table->Scan(stmt.where.get()));
  // Two-phase: build all new rows first so a type error mutates nothing.
  std::vector<std::pair<RowId, Row>> updates;
  for (const auto& [id, row] : matches) {
    Row new_row = row;
    for (const auto& [index, value] : assignments) {
      DPFS_ASSIGN_OR_RETURN(new_row[index],
                            CoerceValue(value, schema.columns()[index].type));
    }
    DPFS_RETURN_IF_ERROR(schema.ValidateRow(new_row));
    updates.emplace_back(id, std::move(new_row));
  }
  for (auto& [id, new_row] : updates) {
    DPFS_ASSIGN_OR_RETURN(Row old_row, table->Get(id));
    DPFS_RETURN_IF_ERROR(table->UpdateRow(id, new_row));
    WalRecord redo;
    redo.kind = WalRecordKind::kUpdate;
    redo.table = table->name();
    redo.row_id = id;
    redo.row = new_row;
    RecordRedo(std::move(redo));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kRestoreRow;
    undo.table = table->name();
    undo.row_id = id;
    undo.row = std::move(old_row);
    undo.was_delete = false;
    RecordUndo(std::move(undo));
  }
  ResultSet result;
  result.affected_rows = updates.size();
  return result;
}

Result<ResultSet> Database::ExecuteDelete(const DeleteStmt& stmt) {
  DPFS_ASSIGN_OR_RETURN(Table * table, FindTable(stmt.table));
  DPFS_ASSIGN_OR_RETURN(const auto matches, table->Scan(stmt.where.get()));
  for (const auto& [id, row] : matches) {
    DPFS_RETURN_IF_ERROR(table->Erase(id));
    WalRecord redo;
    redo.kind = WalRecordKind::kDelete;
    redo.table = table->name();
    redo.row_id = id;
    RecordRedo(std::move(redo));
    UndoOp undo;
    undo.kind = UndoOp::Kind::kRestoreRow;
    undo.table = table->name();
    undo.row_id = id;
    undo.row = row;
    undo.was_delete = true;
    RecordUndo(std::move(undo));
  }
  ResultSet result;
  result.affected_rows = matches.size();
  return result;
}

// ---------------------------------------------------------------------------
// Introspection

std::vector<std::string> Database::TableNames() const {
  ReaderMutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

bool Database::HasTable(std::string_view name) const {
  ReaderMutexLock lock(mu_);
  return tables_.contains(ToLower(name));
}

std::uint64_t Database::wal_size_bytes() const {
  ReaderMutexLock lock(mu_);
  return wal_.has_value() ? wal_->size_bytes() : 0;
}

// ---------------------------------------------------------------------------
// Transaction scopes

Transaction::Transaction(Database& db) : db_(db) { db_.mu_.lock(); }

Transaction::~Transaction() {
  if (!ended_) db_.RollbackLocked();
  db_.mu_.unlock();
}

Result<ResultSet> Transaction::Execute(std::string_view sql) {
  DPFS_ASSIGN_OR_RETURN(const Statement statement, ParseStatement(sql));
  return ExecuteStatement(statement);
}

Result<ResultSet> Transaction::ExecuteStatement(const Statement& statement) {
  if (ended_) return InternalError("statement after the transaction ended");
  MetadbMetrics().statements.Add();
  metrics::ScopedTimer timer(MetadbMetrics().execute_us);
  return db_.ExecuteLocked(statement);
}

Status Transaction::Commit() {
  if (ended_) return InternalError("the transaction has already ended");
  ended_ = true;
  return db_.CommitLocked();
}

ReadTransaction::ReadTransaction(const Database& db) : db_(db) {
  db_.mu_.lock_shared();
}

ReadTransaction::~ReadTransaction() { db_.mu_.unlock_shared(); }

Result<ResultSet> ReadTransaction::Execute(std::string_view sql) const {
  DPFS_ASSIGN_OR_RETURN(const Statement statement, ParseStatement(sql));
  const auto* select = std::get_if<SelectStmt>(&statement);
  if (select == nullptr) {
    return InvalidArgumentError("a read transaction runs only SELECT");
  }
  return ExecuteStatement(*select);
}

Result<ResultSet> ReadTransaction::ExecuteStatement(
    const SelectStmt& select) const {
  MetadbMetrics().statements.Add();
  metrics::ScopedTimer timer(MetadbMetrics().execute_us);
  return db_.ExecuteSelect(select);
}

}  // namespace dpfs::metadb
