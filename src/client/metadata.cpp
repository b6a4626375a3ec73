#include "client/metadata.h"

#include <sys/random.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "metadb/predicate.h"
#include "metadb/sql_ast.h"

namespace dpfs::client {
namespace {

constexpr const char* kServerTable = "DPFS_SERVER";
constexpr const char* kDistTable = "DPFS_FILE_DISTRIBUTION";
constexpr const char* kDirTable = "DPFS_DIRECTORY";
constexpr const char* kAttrTable = "DPFS_FILE_ATTR";
constexpr const char* kIntentTable = "DPFS_INTENT";

// The two file tables' DDL, shared by EnsureTables and the in-place
// upgrades in Attach (WidenTable).
constexpr const char* kDistDdl =
    "CREATE TABLE IF NOT EXISTS DPFS_FILE_DISTRIBUTION ("
    "  filename TEXT, server TEXT, server_index INT, bricklist TEXT,"
    "  replica INT)";
constexpr const char* kAttrDdl =
    "CREATE TABLE IF NOT EXISTS DPFS_FILE_ATTR ("
    "  filename TEXT PRIMARY KEY, owner TEXT, permission INT, size INT,"
    "  filelevel TEXT, elemsize INT, dims INT, dimsize TEXT,"
    "  brickbytes INT, stripe TEXT, pattern TEXT, grid TEXT, subfile TEXT)";

/// The NewSubfileId shape: "/" and 32 lowercase hex digits. The id arrives
/// over the wire through dpfs-metad and becomes a file name on every
/// server, so no other shape is stored.
bool IsSubfileId(std::string_view id) {
  return id.size() == 33 && id[0] == '/' &&
         id.find_first_not_of("0123456789abcdef", 1) == std::string_view::npos;
}

/// Separator between serialized statements in a rename intent payload;
/// ASCII record separator, which cannot appear in a normalized path.
constexpr char kPayloadSep = '\x1e';

/// Fires between the shard commits of a cross-shard mutation
/// (docs/FAULT_INJECTION.md, site `metadb.shard_commit`): the home shard has
/// committed its transaction + intent record, follower shards may or may not
/// have applied. The chaos test kills the protocol here and asserts the
/// repair pass in Attach rolls the mutation forward.
#define DPFS_SHARD_COMMIT_GATE() DPFS_FAILPOINT_RETURN("metadb.shard_commit")

/// SQL string literal with '' escaping (intent payloads only; the hot paths
/// below bypass SQL entirely).
std::string Quote(std::string_view text) {
  std::string out = "'";
  for (const char c : text) {
    out += c;
    if (c == '\'') out += '\'';
  }
  out += "'";
  return out;
}

std::string ValueSqlLiteral(const metadb::Value& value) {
  switch (value.type()) {
    case metadb::ValueType::kNull:
      return "NULL";
    case metadb::ValueType::kInt:
      return std::to_string(value.AsInt());
    case metadb::ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value.AsDouble());
      std::string text = buf;
      if (text.find_first_of(".eE") == std::string::npos) text += ".0";
      return text;
    }
    case metadb::ValueType::kText:
      return Quote(value.AsText());
  }
  return "NULL";
}

std::string EncodeShape(const layout::Shape& shape) {
  std::string out;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (d > 0) out += ',';
    out += std::to_string(shape[d]);
  }
  return out;
}

Result<layout::Shape> DecodeShape(std::string_view text) {
  layout::Shape shape;
  if (TrimWhitespace(text).empty()) return shape;
  for (const std::string& token : SplitString(text, ',')) {
    DPFS_ASSIGN_OR_RETURN(const std::int64_t v, ParseInt64(token));
    if (v <= 0) return InvalidArgumentError("bad shape component in metadata");
    shape.push_back(static_cast<std::uint64_t>(v));
  }
  return shape;
}

/// Comma-separated name list used by DPFS_DIRECTORY columns.
std::vector<std::string> DecodeNameList(std::string_view text) {
  std::vector<std::string> names;
  if (TrimWhitespace(text).empty()) return names;
  for (const std::string& token : SplitString(text, ',')) {
    if (!token.empty()) names.push_back(token);
  }
  return names;
}

std::string EncodeNameList(const std::vector<std::string>& names) {
  return JoinStrings(names, ",");
}

// ---------------------------------------------------------------------------
// Hot statement cache: the manager issues ~10 fixed parameterized statement
// shapes; their ASTs are built once and cloned per call (a SelectStmt copy
// shares the immutable ExprPtr nodes), so the steady-state metadata path
// never touches the SQL lexer/parser. The win shows up in metadb.execute_us.

metadb::SelectStmt MakeSelect(const char* table,
                              std::vector<std::string> columns,
                              std::optional<metadb::OrderBy> order = {}) {
  metadb::SelectStmt stmt;
  stmt.table = table;
  stmt.columns = std::move(columns);
  stmt.order_by = std::move(order);
  return stmt;
}

struct HotStatements {
  metadb::ExprPtr filename_col = metadb::MakeColumn("filename");
  metadb::ExprPtr main_dir_col = metadb::MakeColumn("main_dir");
  metadb::ExprPtr server_name_col = metadb::MakeColumn("server_name");
  metadb::ExprPtr intent_src_col = metadb::MakeColumn("src");

  metadb::SelectStmt attr_all = MakeSelect(kAttrTable, {});
  metadb::SelectStmt attr_exists = MakeSelect(kAttrTable, {"filename"});
  metadb::SelectStmt dist_by_file =
      MakeSelect(kDistTable, {"server", "server_index", "bricklist", "replica"},
                 metadb::OrderBy{"server_index", false});
  metadb::SelectStmt dist_all = MakeSelect(kDistTable, {});
  metadb::SelectStmt server_by_name = MakeSelect(kServerTable, {});
  metadb::SelectStmt servers_ordered =
      MakeSelect(kServerTable, {}, metadb::OrderBy{"server_name", false});
  metadb::SelectStmt dir_exists = MakeSelect(kDirTable, {"main_dir"});
  metadb::SelectStmt dir_lists = MakeSelect(kDirTable, {"sub_dirs", "files"});
  metadb::SelectStmt dir_files = MakeSelect(kDirTable, {"files"});
  metadb::SelectStmt dir_subdirs = MakeSelect(kDirTable, {"sub_dirs"});
  metadb::SelectStmt intent_all = MakeSelect(kIntentTable, {});
};

const HotStatements& Hot() {
  static const HotStatements hot;
  return hot;
}

Result<metadb::ResultSet> SelectEq(metadb::Database& db,
                                   const metadb::SelectStmt& tpl,
                                   const metadb::ExprPtr& column,
                                   std::string_view key) {
  metadb::SelectStmt stmt = tpl;
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return db.ExecuteStatement(std::move(stmt));
}

Result<metadb::ResultSet> SelectAll(metadb::Database& db,
                                    const metadb::SelectStmt& tpl) {
  return db.ExecuteStatement(tpl);
}

Status InsertRow(metadb::Database& db, const char* table,
                 std::vector<metadb::Value> row) {
  metadb::InsertStmt stmt;
  stmt.table = table;
  stmt.rows.push_back(std::move(row));
  return db.ExecuteStatement(std::move(stmt)).status();
}

Result<metadb::ResultSet> DeleteEq(metadb::Database& db, const char* table,
                                   const metadb::ExprPtr& column,
                                   std::string_view key) {
  metadb::DeleteStmt stmt;
  stmt.table = table;
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return db.ExecuteStatement(std::move(stmt));
}

Result<metadb::ResultSet> UpdateEq(
    metadb::Database& db, const char* table,
    std::vector<std::pair<std::string, metadb::Value>> assignments,
    const metadb::ExprPtr& column, std::string_view key) {
  metadb::UpdateStmt stmt;
  stmt.table = table;
  stmt.assignments = std::move(assignments);
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return db.ExecuteStatement(std::move(stmt));
}

/// RAII transaction guard: rolls back unless Commit() succeeded.
class Transaction {
 public:
  explicit Transaction(metadb::Database& db) : db_(db) {}
  Status Begin() {
    return db_.ExecuteStatement(metadb::BeginStmt{}).status();
  }
  Status Commit() {
    committed_ = true;
    return db_.ExecuteStatement(metadb::CommitStmt{}).status();
  }
  ~Transaction() {
    // dpfs:unchecked(destructor rollback on the error path: the statement
    // failure already propagated; rollback of an open txn cannot fail in
    // metadb and a throw/return is impossible here anyway)
    if (!committed_) (void)db_.ExecuteStatement(metadb::RollbackStmt{});
  }

 private:
  metadb::Database& db_;
  bool committed_ = false;
};

Result<ServerInfo> ServerFromRow(const metadb::ResultSet& result,
                                 std::size_t row) {
  ServerInfo server;
  DPFS_ASSIGN_OR_RETURN(server.name, result.GetText(row, "server_name"));
  DPFS_ASSIGN_OR_RETURN(server.endpoint.host, result.GetText(row, "host"));
  DPFS_ASSIGN_OR_RETURN(const std::int64_t port, result.GetInt(row, "port"));
  server.endpoint.port = static_cast<std::uint16_t>(port);
  DPFS_ASSIGN_OR_RETURN(const std::int64_t capacity,
                        result.GetInt(row, "capacity"));
  server.capacity_bytes = static_cast<std::uint64_t>(capacity);
  DPFS_ASSIGN_OR_RETURN(const std::int64_t performance,
                        result.GetInt(row, "performance"));
  server.performance = static_cast<std::uint32_t>(performance);
  return server;
}

Result<ServerInfo> ServerByName(metadb::Database& db,
                                const std::string& name) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(db, Hot().server_by_name, Hot().server_name_col, name));
  if (result.empty()) return NotFoundError("no server '" + name + "'");
  return ServerFromRow(result, 0);
}

Result<bool> FileExistsIn(metadb::Database& db, const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(db, Hot().attr_exists, Hot().filename_col, path));
  return !result.empty();
}

Result<bool> DirExistsIn(metadb::Database& db, const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(db, Hot().dir_exists, Hot().main_dir_col, path));
  return !result.empty();
}

/// Serializes a file's rows on its (old) home shard as INSERT statements
/// with the filename already rewritten to `dst` — the rename intent payload
/// applied on the destination home shard.
Result<std::string> BuildRenamePayload(metadb::Database& db,
                                       const std::string& src,
                                       const std::string& dst) {
  const HotStatements& hot = Hot();
  struct TableSelect {
    const char* table;
    const metadb::SelectStmt* all;
  };
  const TableSelect tables[] = {{kAttrTable, &hot.attr_all},
                                {kDistTable, &hot.dist_all}};
  std::vector<std::string> statements;
  for (const TableSelect& t : tables) {
    DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet rows,
                          SelectEq(db, *t.all, hot.filename_col, src));
    for (const metadb::Row& row : rows.rows) {
      std::string sql = "INSERT INTO ";
      sql += t.table;
      sql += " VALUES (";
      for (std::size_t col = 0; col < row.size(); ++col) {
        if (col > 0) sql += ", ";
        // Column 0 is `filename` in both tables.
        sql += col == 0 ? Quote(dst) : ValueSqlLiteral(row[col]);
      }
      sql += ")";
      statements.push_back(std::move(sql));
    }
  }
  return JoinStrings(statements, std::string(1, kPayloadSep));
}

}  // namespace

Result<std::string> NewSubfileId() {
  // Up to 256 bytes, getrandom fills the buffer in one call.
  std::uint64_t bits[2];
  if (::getrandom(bits, sizeof(bits), 0) != sizeof(bits)) {
    return IoErrnoError("getrandom", "subfile id");
  }
  char id[34];
  std::snprintf(id, sizeof(id), "/%016" PRIx64 "%016" PRIx64, bits[0],
                bits[1]);
  return std::string(id);
}

Result<layout::BrickMap> FileMeta::MakeBrickMap() const {
  switch (level) {
    case layout::FileLevel::kLinear:
      if (!array_shape.empty()) {
        return layout::BrickMap::LinearArray(array_shape, element_size,
                                             brick_bytes);
      }
      return layout::BrickMap::Linear(size_bytes, brick_bytes);
    case layout::FileLevel::kMultidim:
      return layout::BrickMap::Multidim(array_shape, brick_shape,
                                        element_size);
    case layout::FileLevel::kArray: {
      if (!pattern.has_value()) {
        return InternalError("array-level file missing HPF pattern");
      }
      layout::ProcessGrid grid;
      grid.grid = chunk_grid;
      return layout::BrickMap::Array(array_shape, *pattern, grid,
                                     element_size);
    }
  }
  return InternalError("bad file level in metadata");
}

// ---------------------------------------------------------------------------
// Shard locking

/// Locks the transaction mutex of every involved shard in ascending index
/// order (a total order, so concurrent multi-shard mutations cannot
/// deadlock) and releases in reverse. Manual lock()/unlock() because the
/// shard set is dynamic; the annotations cannot track a runtime-indexed
/// mutex vector.
class MetadataManager::ShardLocks {
 public:
  // dpfs:no-tsa(runtime-indexed mutex vector: the analysis cannot name
  // shard_mu_[i] capabilities; the sorted ascending acquisition below is
  // the manual discipline that replaces it)
  ShardLocks(MetadataManager& manager, std::vector<std::size_t> shards)
      DPFS_NO_THREAD_SAFETY_ANALYSIS : manager_(manager),
                                       shards_(std::move(shards)) {
    std::sort(shards_.begin(), shards_.end());
    shards_.erase(std::unique(shards_.begin(), shards_.end()),
                  shards_.end());
    for (const std::size_t shard : shards_) {
      // dpfs:lock-order-ok(shard_mu_ instances are taken in ascending
      // shard index over a sorted deduplicated set — a total order, so
      // concurrent multi-shard mutations cannot deadlock)
      manager_.shard_mu_[shard]->lock();
    }
  }
  // dpfs:no-tsa(release-only path of the runtime-indexed acquisition
  // above, in exact reverse order)
  ~ShardLocks() DPFS_NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      manager_.shard_mu_[*it]->unlock();
    }
  }
  ShardLocks(const ShardLocks&) = delete;
  ShardLocks& operator=(const ShardLocks&) = delete;

 private:
  MetadataManager& manager_;
  std::vector<std::size_t> shards_;
};

// ---------------------------------------------------------------------------
// Attach / schema

MetadataManager::MetadataManager(std::shared_ptr<metadb::ShardedDatabase> db)
    : db_(std::move(db)) {
  shard_mu_.reserve(db_->num_shards());
  for (std::size_t i = 0; i < db_->num_shards(); ++i) {
    shard_mu_.push_back(std::make_unique<Mutex>());
  }
}

Result<std::unique_ptr<MetadataManager>> MetadataManager::Attach(
    std::shared_ptr<metadb::ShardedDatabase> db) {
  std::unique_ptr<MetadataManager> manager(
      new MetadataManager(std::move(db)));
  DPFS_RETURN_IF_ERROR(manager->EnsureTables());
  if (manager->db_->num_shards() > 1) {
    DPFS_RETURN_IF_ERROR(manager->RepairIntents());
  }
  // Upgrade older layouts only after the repair pass: a pending rename
  // intent's payload INSERTs rows in the layout that wrote it (12 values
  // into DPFS_FILE_ATTR, rows into the retired access-log table).
  for (std::size_t i = 0; i < manager->db_->num_shards(); ++i) {
    metadb::Database& shard = manager->Shard(i);
    // Pre-replication rows become replica rank 0.
    DPFS_RETURN_IF_ERROR(manager->WidenTable(
        shard, kDistTable, "replica", kDistDdl, [](const metadb::Row&) {
          return metadb::Value(static_cast<std::int64_t>(0));
        }));
    // Files from before subfile ids keep their path-named subfiles: the
    // id is the filename, and no server is touched.
    DPFS_RETURN_IF_ERROR(manager->WidenTable(
        shard, kAttrTable, "subfile", kAttrDdl,
        [](const metadb::Row& row) { return row[0]; }));
    if (shard.HasTable("DPFS_ACCESS_LOG")) {
      DPFS_RETURN_IF_ERROR(
          shard.Execute("DROP TABLE DPFS_ACCESS_LOG").status());
    }
    // Distribution rows are keyed by filename (one row per server per
    // file); index them so DPFS-Open's lookup is a probe, not a scan.
    DPFS_RETURN_IF_ERROR(shard.CreateIndex(kDistTable, "filename"));
  }
  return manager;
}

Status MetadataManager::EnsureTables() {
  static constexpr const char* kDdl[] = {
      "CREATE TABLE IF NOT EXISTS DPFS_SERVER ("
      "  server_name TEXT PRIMARY KEY, host TEXT, port INT,"
      "  capacity INT, performance INT)",
      kDistDdl,
      "CREATE TABLE IF NOT EXISTS DPFS_DIRECTORY ("
      "  main_dir TEXT PRIMARY KEY, sub_dirs TEXT, files TEXT)",
      kAttrDdl,
  };
  // Pending cross-shard mutations (docs/METADATA_SCHEMA.md "Sharding");
  // only exists on sharded databases so the single-shard on-disk layout
  // stays byte-identical to the unsharded engine.
  static constexpr const char* kIntentDdl =
      "CREATE TABLE IF NOT EXISTS DPFS_INTENT ("
      "  src TEXT PRIMARY KEY, op TEXT, dst TEXT, payload TEXT)";

  for (std::size_t i = 0; i < db_->num_shards(); ++i) {
    metadb::Database& shard = Shard(i);
    for (const char* ddl : kDdl) {
      DPFS_RETURN_IF_ERROR(shard.Execute(ddl).status());
    }
    if (db_->num_shards() > 1) {
      DPFS_RETURN_IF_ERROR(shard.Execute(kIntentDdl).status());
    }
  }

  // The root directory always exists (on its home shard).
  metadb::Database& root_shard = Shard(ShardOf("/"));
  DPFS_ASSIGN_OR_RETURN(const bool root_exists,
                        DirExistsIn(root_shard, "/"));
  if (!root_exists) {
    DPFS_RETURN_IF_ERROR(InsertRow(root_shard, kDirTable, {"/", "", ""}));
  }
  return Status::Ok();
}

Status MetadataManager::WidenTable(
    metadb::Database& shard, const char* table, std::string_view column,
    const char* ddl,
    const std::function<metadb::Value(const metadb::Row&)>& fill) {
  DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet probe,
                        SelectAll(shard, MakeSelect(table, {})));
  for (const std::string& name : probe.columns) {
    if (EqualsIgnoreCase(name, column)) return Status::Ok();
  }
  // DDL participates in transactions (undo restores the dropped table), so
  // a crash mid-upgrade leaves the old schema intact.
  Transaction txn(shard);
  DPFS_RETURN_IF_ERROR(txn.Begin());
  DPFS_RETURN_IF_ERROR(
      shard.Execute(std::string("DROP TABLE ") + table).status());
  DPFS_RETURN_IF_ERROR(shard.Execute(ddl).status());
  for (const metadb::Row& row : probe.rows) {
    std::vector<metadb::Value> widened = row;
    widened.push_back(fill(row));
    DPFS_RETURN_IF_ERROR(InsertRow(shard, table, std::move(widened)));
  }
  return txn.Commit();
}

// ---------------------------------------------------------------------------
// Cross-shard intent protocol

Status MetadataManager::UpsertIntent(metadb::Database& home,
                                     const std::string& op,
                                     const std::string& src,
                                     const std::string& dst,
                                     const std::string& payload) {
  // Delete-then-insert: a later mutation of the same path supersedes any
  // stale intent row (the PK is `src`).
  DPFS_RETURN_IF_ERROR(
      DeleteEq(home, kIntentTable, Hot().intent_src_col, src).status());
  return InsertRow(home, kIntentTable, {src, op, dst, payload});
}

Status MetadataManager::DeleteIntent(metadb::Database& home,
                                     const std::string& src) {
  return DeleteEq(home, kIntentTable, Hot().intent_src_col, src).status();
}

Status MetadataManager::LinkName(metadb::Database& db, const std::string& dir,
                                 const std::string& name, bool file) {
  const HotStatements& hot = Hot();
  const char* column = file ? "files" : "sub_dirs";
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(db, file ? hot.dir_files : hot.dir_subdirs, hot.main_dir_col,
               dir));
  if (row.empty()) return Status::Ok();
  DPFS_ASSIGN_OR_RETURN(const std::string list, row.GetText(0, column));
  std::vector<std::string> names = DecodeNameList(list);
  if (std::find(names.begin(), names.end(), name) != names.end()) {
    return Status::Ok();
  }
  names.push_back(name);
  return UpdateEq(db, kDirTable, {{column, EncodeNameList(names)}},
                  hot.main_dir_col, dir)
      .status();
}

Status MetadataManager::UnlinkName(metadb::Database& db,
                                   const std::string& dir,
                                   const std::string& name, bool file) {
  const HotStatements& hot = Hot();
  const char* column = file ? "files" : "sub_dirs";
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(db, file ? hot.dir_files : hot.dir_subdirs, hot.main_dir_col,
               dir));
  if (row.empty()) return Status::Ok();
  DPFS_ASSIGN_OR_RETURN(const std::string list, row.GetText(0, column));
  std::vector<std::string> names = DecodeNameList(list);
  const auto end = std::remove(names.begin(), names.end(), name);
  if (end == names.end()) return Status::Ok();
  names.erase(end, names.end());
  return UpdateEq(db, kDirTable, {{column, EncodeNameList(names)}},
                  hot.main_dir_col, dir)
      .status();
}

Status MetadataManager::ApplyRenamePayload(metadb::Database& db,
                                           const std::string& dst,
                                           const std::string& payload) {
  const HotStatements& hot = Hot();
  Transaction txn(db);
  DPFS_RETURN_IF_ERROR(txn.Begin());
  // Idempotent: clear any rows a partial earlier application left behind,
  // then re-insert from the payload.
  DPFS_RETURN_IF_ERROR(
      DeleteEq(db, kAttrTable, hot.filename_col, dst).status());
  DPFS_RETURN_IF_ERROR(
      DeleteEq(db, kDistTable, hot.filename_col, dst).status());
  for (const std::string& sql : SplitString(payload, kPayloadSep)) {
    if (sql.empty()) continue;
    DPFS_RETURN_IF_ERROR(db.Execute(sql).status());
  }
  return txn.Commit();
}

Status MetadataManager::ApplyIntent(const std::string& op,
                                    const std::string& src,
                                    const std::string& dst,
                                    const std::string& payload) {
  const auto [src_parent, src_name] = SplitPath(src);
  metadb::Database& src_dir_shard = Shard(ShardOf(src_parent));
  if (op == "create") return LinkName(src_dir_shard, src_parent, src_name, true);
  if (op == "delete") {
    return UnlinkName(src_dir_shard, src_parent, src_name, true);
  }
  if (op == "mkdir") return LinkName(src_dir_shard, src_parent, src_name, false);
  if (op == "rmdir") {
    return UnlinkName(src_dir_shard, src_parent, src_name, false);
  }
  if (op == "rename") {
    if (!payload.empty()) {
      DPFS_RETURN_IF_ERROR(ApplyRenamePayload(Shard(ShardOf(dst)), dst,
                                              payload));
    }
    DPFS_RETURN_IF_ERROR(UnlinkName(src_dir_shard, src_parent, src_name, true));
    const auto [dst_parent, dst_name] = SplitPath(dst);
    return LinkName(Shard(ShardOf(dst_parent)), dst_parent, dst_name, true);
  }
  return InternalError("unknown intent op '" + op + "'");
}

Status MetadataManager::RepairIntents() {
  for (std::size_t i = 0; i < db_->num_shards(); ++i) {
    metadb::Database& shard = Shard(i);
    DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet intents,
                          SelectAll(shard, Hot().intent_all));
    for (std::size_t row = 0; row < intents.size(); ++row) {
      DPFS_ASSIGN_OR_RETURN(const std::string op, intents.GetText(row, "op"));
      DPFS_ASSIGN_OR_RETURN(const std::string src,
                            intents.GetText(row, "src"));
      DPFS_ASSIGN_OR_RETURN(const std::string dst,
                            intents.GetText(row, "dst"));
      DPFS_ASSIGN_OR_RETURN(const std::string payload,
                            intents.GetText(row, "payload"));
      DPFS_RETURN_IF_ERROR(ApplyIntent(op, src, dst, payload));
      DPFS_RETURN_IF_ERROR(DeleteIntent(shard, src));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Servers (replicated to every shard — lookups stay single-shard)

Status MetadataManager::RegisterServer(const ServerInfo& server) {
  std::vector<std::size_t> all(db_->num_shards());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  ShardLocks locks(*this, std::move(all));

  const auto row = [&server]() -> std::vector<metadb::Value> {
    return {server.name, server.endpoint.host,
            static_cast<std::int64_t>(server.endpoint.port),
            static_cast<std::int64_t>(server.capacity_bytes),
            static_cast<std::int64_t>(server.performance)};
  };
  // Shard 0 keeps the unsharded contract: a duplicate name is a primary-key
  // error. The replicas upsert — re-registration repair must be idempotent.
  DPFS_RETURN_IF_ERROR(InsertRow(Shard(0), kServerTable, row()));
  for (std::size_t i = 1; i < db_->num_shards(); ++i) {
    DPFS_RETURN_IF_ERROR(
        DeleteEq(Shard(i), kServerTable, Hot().server_name_col, server.name)
            .status());
    DPFS_RETURN_IF_ERROR(InsertRow(Shard(i), kServerTable, row()));
  }
  return Status::Ok();
}

Status MetadataManager::UnregisterServer(const std::string& name) {
  std::vector<std::size_t> all(db_->num_shards());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  ShardLocks locks(*this, std::move(all));

  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      DeleteEq(Shard(0), kServerTable, Hot().server_name_col, name));
  if (result.affected_rows == 0) {
    return NotFoundError("no server '" + name + "'");
  }
  for (std::size_t i = 1; i < db_->num_shards(); ++i) {
    DPFS_RETURN_IF_ERROR(
        DeleteEq(Shard(i), kServerTable, Hot().server_name_col, name)
            .status());
  }
  return Status::Ok();
}

Result<std::vector<ServerInfo>> MetadataManager::ListServers() {
  DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet result,
                        SelectAll(Shard(0), Hot().servers_ordered));
  std::vector<ServerInfo> servers;
  servers.reserve(result.size());
  for (std::size_t row = 0; row < result.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(ServerInfo server, ServerFromRow(result, row));
    servers.push_back(std::move(server));
  }
  return servers;
}

// ---------------------------------------------------------------------------
// Directories

Result<bool> MetadataManager::DirectoryExists(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  return DirExistsIn(Shard(ShardOf(normalized)), normalized);
}

Result<bool> MetadataManager::FileExists(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  return FileExistsIn(Shard(ShardOf(normalized)), normalized);
}

Status MetadataManager::MakeDirectory(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (normalized == "/") return AlreadyExistsError("'/' already exists");
  const auto [parent, name] = SplitPath(normalized);

  const std::size_t home = ShardOf(normalized);
  const std::size_t parent_shard = ShardOf(parent);
  ShardLocks locks(*this, {home, parent_shard});

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists,
                        DirExistsIn(Shard(parent_shard), parent));
  if (!parent_exists) {
    return NotFoundError("parent directory '" + parent + "' does not exist");
  }
  DPFS_ASSIGN_OR_RETURN(const bool exists,
                        DirExistsIn(Shard(home), normalized));
  if (exists) {
    return AlreadyExistsError("directory '" + normalized + "' exists");
  }
  DPFS_ASSIGN_OR_RETURN(const bool file_exists,
                        FileExistsIn(Shard(home), normalized));
  if (file_exists) {
    return AlreadyExistsError("'" + normalized + "' exists as a file");
  }

  if (home == parent_shard) {
    // §5: update the parent row's sub-dirs and insert a new row.
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(LinkName(Shard(parent_shard), parent, name, false));
    DPFS_RETURN_IF_ERROR(
        InsertRow(Shard(home), kDirTable, {normalized, "", ""}));
    return txn.Commit();
  }

  // Cross-shard: the directory's own row + intent commit on its home shard
  // first, then the parent link; a crash in between rolls forward on the
  // next Attach.
  {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(
        InsertRow(Shard(home), kDirTable, {normalized, "", ""}));
    DPFS_RETURN_IF_ERROR(
        UpsertIntent(Shard(home), "mkdir", normalized, "", ""));
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }
  DPFS_SHARD_COMMIT_GATE();
  DPFS_RETURN_IF_ERROR(LinkName(Shard(parent_shard), parent, name, false));
  DPFS_SHARD_COMMIT_GATE();
  return DeleteIntent(Shard(home), normalized);
}

Result<MetadataManager::Listing> MetadataManager::ListDirectory(
    const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(Shard(ShardOf(normalized)), Hot().dir_lists,
               Hot().main_dir_col, normalized));
  if (result.empty()) {
    return NotFoundError("no such directory '" + normalized + "'");
  }
  Listing listing;
  DPFS_ASSIGN_OR_RETURN(const std::string sub_dirs,
                        result.GetText(0, "sub_dirs"));
  DPFS_ASSIGN_OR_RETURN(const std::string files, result.GetText(0, "files"));
  listing.directories = DecodeNameList(sub_dirs);
  listing.files = DecodeNameList(files);
  std::sort(listing.directories.begin(), listing.directories.end());
  std::sort(listing.files.begin(), listing.files.end());
  return listing;
}

Status MetadataManager::RemoveDirectory(const std::string& path,
                                        bool recursive) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (normalized == "/") {
    return InvalidArgumentError("cannot remove the root directory");
  }
  // Recursive deletion runs as an unlocked pre-pass: each child op takes
  // its own shard locks (the mutexes are not reentrant).
  DPFS_ASSIGN_OR_RETURN(const Listing listing, ListDirectory(normalized));
  if (!recursive && (!listing.directories.empty() || !listing.files.empty())) {
    return InvalidArgumentError("directory '" + normalized +
                                "' is not empty");
  }
  if (recursive) {
    for (const std::string& file : listing.files) {
      DPFS_RETURN_IF_ERROR(DeleteFile(normalized + "/" + file).status());
    }
    for (const std::string& dir : listing.directories) {
      DPFS_RETURN_IF_ERROR(RemoveDirectory(normalized + "/" + dir, true));
    }
  }

  const auto [parent, name] = SplitPath(normalized);
  const std::size_t home = ShardOf(normalized);
  const std::size_t parent_shard = ShardOf(parent);
  ShardLocks locks(*this, {home, parent_shard});

  // Re-validate under the locks: the directory must still exist and be
  // empty (a concurrent create may have raced the unlocked pre-pass).
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(Shard(home), Hot().dir_lists, Hot().main_dir_col,
               normalized));
  if (row.empty()) {
    return NotFoundError("no such directory '" + normalized + "'");
  }
  DPFS_ASSIGN_OR_RETURN(const std::string sub_dirs,
                        row.GetText(0, "sub_dirs"));
  DPFS_ASSIGN_OR_RETURN(const std::string files, row.GetText(0, "files"));
  if (!DecodeNameList(sub_dirs).empty() || !DecodeNameList(files).empty()) {
    return InvalidArgumentError("directory '" + normalized +
                                "' is not empty");
  }

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists,
                        DirExistsIn(Shard(parent_shard), parent));
  if (!parent_exists) {
    return InternalError("parent row missing for '" + normalized + "'");
  }

  if (home == parent_shard) {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(UnlinkName(Shard(parent_shard), parent, name, false));
    DPFS_RETURN_IF_ERROR(
        DeleteEq(Shard(home), kDirTable, Hot().main_dir_col, normalized)
            .status());
    return txn.Commit();
  }

  {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(
        DeleteEq(Shard(home), kDirTable, Hot().main_dir_col, normalized)
            .status());
    DPFS_RETURN_IF_ERROR(
        UpsertIntent(Shard(home), "rmdir", normalized, "", ""));
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }
  DPFS_SHARD_COMMIT_GATE();
  DPFS_RETURN_IF_ERROR(UnlinkName(Shard(parent_shard), parent, name, false));
  DPFS_SHARD_COMMIT_GATE();
  return DeleteIntent(Shard(home), normalized);
}

// ---------------------------------------------------------------------------
// Files

Status MetadataManager::CreateFile(
    const FileMeta& meta, const std::vector<std::string>& server_names,
    const layout::BrickDistribution& distribution,
    const std::vector<layout::BrickDistribution>& replicas) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized,
                        NormalizePath(meta.path));
  const auto [parent, name] = SplitPath(normalized);
  if (name.empty()) return InvalidArgumentError("file path must name a file");
  if (!IsSubfileId(meta.subfile)) {
    return InvalidArgumentError("bad subfile id '" + meta.subfile + "'");
  }

  const std::size_t home = ShardOf(normalized);
  const std::size_t parent_shard = ShardOf(parent);
  ShardLocks locks(*this, {home, parent_shard});

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists,
                        DirExistsIn(Shard(parent_shard), parent));
  if (!parent_exists) {
    return NotFoundError("parent directory '" + parent + "' does not exist");
  }
  DPFS_ASSIGN_OR_RETURN(const bool exists,
                        FileExistsIn(Shard(home), normalized));
  if (exists) {
    return AlreadyExistsError("file '" + normalized + "' exists");
  }
  if (server_names.size() != distribution.num_servers()) {
    return InvalidArgumentError(
        "server name count does not match distribution");
  }
  for (const layout::BrickDistribution& replica : replicas) {
    if (replica.num_servers() != distribution.num_servers() ||
        replica.num_bricks() != distribution.num_bricks()) {
      return InvalidArgumentError(
          "replica rank disagrees with the primary distribution");
    }
  }

  std::vector<metadb::Value> attr_row = {
      normalized,
      meta.owner,
      static_cast<std::int64_t>(meta.permission),
      static_cast<std::int64_t>(meta.size_bytes),
      std::string(layout::FileLevelName(meta.level)),
      static_cast<std::int64_t>(meta.element_size),
      static_cast<std::int64_t>(meta.array_shape.size()),
      EncodeShape(meta.array_shape),
      static_cast<std::int64_t>(meta.brick_bytes),
      EncodeShape(meta.brick_shape),
      meta.pattern.has_value() ? metadb::Value(meta.pattern->ToString())
                               : metadb::Value::Null(),
      EncodeShape(meta.chunk_grid),
      meta.subfile};

  const auto insert_file_rows = [&]() -> Status {
    DPFS_RETURN_IF_ERROR(
        InsertRow(Shard(home), kAttrTable, std::move(attr_row)));
    for (std::uint32_t rank = 0; rank <= replicas.size(); ++rank) {
      const layout::BrickDistribution& rank_dist =
          rank == 0 ? distribution : replicas[rank - 1];
      for (std::uint32_t server = 0; server < rank_dist.num_servers();
           ++server) {
        DPFS_RETURN_IF_ERROR(InsertRow(
            Shard(home), kDistTable,
            {normalized, server_names[server],
             static_cast<std::int64_t>(server),
             layout::BrickDistribution::EncodeBrickList(
                 rank_dist.bricks_on(server)),
             static_cast<std::int64_t>(rank)}));
      }
    }
    return Status::Ok();
  };

  if (home == parent_shard) {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(insert_file_rows());
    DPFS_RETURN_IF_ERROR(LinkName(Shard(parent_shard), parent, name, true));
    return txn.Commit();
  }

  {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(insert_file_rows());
    DPFS_RETURN_IF_ERROR(
        UpsertIntent(Shard(home), "create", normalized, "", ""));
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }
  DPFS_SHARD_COMMIT_GATE();
  DPFS_RETURN_IF_ERROR(LinkName(Shard(parent_shard), parent, name, true));
  DPFS_SHARD_COMMIT_GATE();
  return DeleteIntent(Shard(home), normalized);
}

Result<FileRecord> MetadataManager::LookupFile(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  metadb::Database& home = Shard(ShardOf(normalized));
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet attr,
      SelectEq(home, Hot().attr_all, Hot().filename_col, normalized));
  if (attr.empty()) {
    return NotFoundError("no such file '" + normalized + "'");
  }

  FileRecord record;
  FileMeta& meta = record.meta;
  meta.path = normalized;
  DPFS_ASSIGN_OR_RETURN(meta.owner, attr.GetText(0, "owner"));
  DPFS_ASSIGN_OR_RETURN(const std::int64_t permission,
                        attr.GetInt(0, "permission"));
  meta.permission = static_cast<std::uint32_t>(permission);
  DPFS_ASSIGN_OR_RETURN(const std::int64_t size, attr.GetInt(0, "size"));
  meta.size_bytes = static_cast<std::uint64_t>(size);
  DPFS_ASSIGN_OR_RETURN(const std::string level_name,
                        attr.GetText(0, "filelevel"));
  DPFS_ASSIGN_OR_RETURN(meta.level, layout::ParseFileLevel(level_name));
  DPFS_ASSIGN_OR_RETURN(const std::int64_t element_size,
                        attr.GetInt(0, "elemsize"));
  meta.element_size = static_cast<std::uint64_t>(element_size);
  DPFS_ASSIGN_OR_RETURN(const std::string dimsize, attr.GetText(0, "dimsize"));
  DPFS_ASSIGN_OR_RETURN(meta.array_shape, DecodeShape(dimsize));
  DPFS_ASSIGN_OR_RETURN(const std::int64_t brick_bytes,
                        attr.GetInt(0, "brickbytes"));
  meta.brick_bytes = static_cast<std::uint64_t>(brick_bytes);
  DPFS_ASSIGN_OR_RETURN(const std::string stripe, attr.GetText(0, "stripe"));
  DPFS_ASSIGN_OR_RETURN(meta.brick_shape, DecodeShape(stripe));
  DPFS_ASSIGN_OR_RETURN(const metadb::Value pattern_value,
                        attr.GetValue(0, "pattern"));
  if (!pattern_value.is_null()) {
    DPFS_ASSIGN_OR_RETURN(const layout::HpfPattern pattern,
                          layout::HpfPattern::Parse(pattern_value.AsText()));
    meta.pattern = pattern;
  }
  DPFS_ASSIGN_OR_RETURN(const std::string grid, attr.GetText(0, "grid"));
  DPFS_ASSIGN_OR_RETURN(meta.chunk_grid, DecodeShape(grid));
  DPFS_ASSIGN_OR_RETURN(meta.subfile, attr.GetText(0, "subfile"));

  // Distribution rows, ordered by server_index; DPFS_SERVER is replicated,
  // so the joined server rows come from the same (home) shard.
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet dist,
      SelectEq(home, Hot().dist_by_file, Hot().filename_col, normalized));
  if (dist.empty()) {
    return DataLossError("file '" + normalized +
                         "' has no distribution rows");
  }
  // Rows are (server_index, replica rank) keyed; rank 0 is the paper's
  // distribution, higher ranks are replica placements (docs/REPLICATION.md).
  std::int64_t max_rank = 0;
  for (std::size_t row = 0; row < dist.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(const std::int64_t rank,
                          dist.GetInt(row, "replica"));
    if (rank < 0) return DataLossError("negative replica rank in metadata");
    max_rank = std::max(max_rank, rank);
  }
  const std::size_t num_ranks = static_cast<std::size_t>(max_rank) + 1;
  if (dist.size() % num_ranks != 0) {
    return DataLossError("distribution rows do not cover every replica rank");
  }
  const std::size_t num_servers = dist.size() / num_ranks;
  std::vector<std::vector<std::vector<layout::BrickId>>> bricklists(
      num_ranks, std::vector<std::vector<layout::BrickId>>(num_servers));
  std::vector<std::vector<bool>> seen(num_ranks,
                                      std::vector<bool>(num_servers, false));
  record.servers.resize(num_servers);
  for (std::size_t row = 0; row < dist.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(const std::int64_t index,
                          dist.GetInt(row, "server_index"));
    DPFS_ASSIGN_OR_RETURN(const std::int64_t rank,
                          dist.GetInt(row, "replica"));
    if (index < 0 || static_cast<std::size_t>(index) >= num_servers) {
      return DataLossError("bad server_index in distribution");
    }
    if (seen[rank][index]) {
      return DataLossError("duplicate distribution row in metadata");
    }
    seen[rank][index] = true;
    if (rank == 0) {
      DPFS_ASSIGN_OR_RETURN(const std::string server_name,
                            dist.GetText(row, "server"));
      DPFS_ASSIGN_OR_RETURN(record.servers[index],
                            ServerByName(home, server_name));
    }
    DPFS_ASSIGN_OR_RETURN(const std::string bricklist,
                          dist.GetText(row, "bricklist"));
    DPFS_ASSIGN_OR_RETURN(
        bricklists[rank][index],
        layout::BrickDistribution::DecodeBrickList(bricklist));
  }
  DPFS_ASSIGN_OR_RETURN(const layout::BrickMap map, meta.MakeBrickMap());
  DPFS_ASSIGN_OR_RETURN(record.distribution,
                        layout::BrickDistribution::FromBrickLists(
                            map.num_bricks(), std::move(bricklists[0])));
  for (std::size_t rank = 1; rank < num_ranks; ++rank) {
    DPFS_ASSIGN_OR_RETURN(layout::BrickDistribution replica,
                          layout::BrickDistribution::FromBrickLists(
                              map.num_bricks(), std::move(bricklists[rank])));
    record.replicas.push_back(std::move(replica));
  }
  return record;
}

Status MetadataManager::SetPermission(const std::string& path,
                                      std::uint32_t permission) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  const std::size_t home = ShardOf(normalized);
  ShardLocks locks(*this, {home});
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      UpdateEq(Shard(home), kAttrTable,
               {{"permission", static_cast<std::int64_t>(permission)}},
               Hot().filename_col, normalized));
  if (result.affected_rows == 0) {
    return NotFoundError("no such file '" + normalized + "'");
  }
  return Status::Ok();
}

Status MetadataManager::SetOwner(const std::string& path,
                                 const std::string& owner) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  const std::size_t home = ShardOf(normalized);
  ShardLocks locks(*this, {home});
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      UpdateEq(Shard(home), kAttrTable, {{"owner", owner}},
               Hot().filename_col, normalized));
  if (result.affected_rows == 0) {
    return NotFoundError("no such file '" + normalized + "'");
  }
  return Status::Ok();
}

Status MetadataManager::RenameFile(const std::string& from,
                                   const std::string& to) {
  DPFS_ASSIGN_OR_RETURN(const std::string src, NormalizePath(from));
  DPFS_ASSIGN_OR_RETURN(const std::string dst, NormalizePath(to));
  if (src == dst) return Status::Ok();
  const auto [src_parent, src_name] = SplitPath(src);
  const auto [dst_parent, dst_name] = SplitPath(dst);

  const std::size_t hs = ShardOf(src);        // source rows' home
  const std::size_t hd = ShardOf(dst);        // destination rows' home
  const std::size_t ds = ShardOf(src_parent);  // source directory row
  const std::size_t dd = ShardOf(dst_parent);  // destination directory row
  ShardLocks locks(*this, {hs, hd, ds, dd});

  DPFS_ASSIGN_OR_RETURN(const bool src_exists, FileExistsIn(Shard(hs), src));
  if (!src_exists) return NotFoundError("no such file '" + src + "'");
  DPFS_ASSIGN_OR_RETURN(const bool dst_exists, FileExistsIn(Shard(hd), dst));
  if (dst_exists) return AlreadyExistsError("file '" + dst + "' exists");
  DPFS_ASSIGN_OR_RETURN(const bool dst_is_dir, DirExistsIn(Shard(hd), dst));
  if (dst_is_dir) return AlreadyExistsError("'" + dst + "' is a directory");
  if (dst_name.empty()) {
    return InvalidArgumentError("rename target must name a file");
  }
  DPFS_ASSIGN_OR_RETURN(const bool parent_exists,
                        DirExistsIn(Shard(dd), dst_parent));
  if (!parent_exists) {
    return NotFoundError("target directory '" + dst_parent +
                         "' does not exist");
  }

  const auto rename_rows_on = [&](metadb::Database& db) -> Status {
    DPFS_RETURN_IF_ERROR(UpdateEq(db, kAttrTable, {{"filename", dst}},
                                  Hot().filename_col, src)
                             .status());
    return UpdateEq(db, kDistTable, {{"filename", dst}}, Hot().filename_col,
                    src)
        .status();
  };

  if (hs == hd && hs == ds && hs == dd) {
    Transaction txn(Shard(hs));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(rename_rows_on(Shard(hs)));
    DPFS_RETURN_IF_ERROR(UnlinkName(Shard(ds), src_parent, src_name, true));
    DPFS_RETURN_IF_ERROR(LinkName(Shard(dd), dst_parent, dst_name, true));
    return txn.Commit();
  }

  // Cross-shard rename. When the file's home shard moves (hs != hd) the
  // rows travel inside the intent payload: the home transaction deletes
  // them and persists their serialized form, the destination shard
  // re-inserts them. Directory link/unlink roles on the home shard fold
  // into the same transaction; the rest replay on their own shards.
  std::string payload;
  if (hs != hd) {
    DPFS_ASSIGN_OR_RETURN(payload, BuildRenamePayload(Shard(hs), src, dst));
  }
  {
    Transaction txn(Shard(hs));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    if (hs == hd) {
      DPFS_RETURN_IF_ERROR(rename_rows_on(Shard(hs)));
    } else {
      DPFS_RETURN_IF_ERROR(
          DeleteEq(Shard(hs), kAttrTable, Hot().filename_col, src).status());
      DPFS_RETURN_IF_ERROR(
          DeleteEq(Shard(hs), kDistTable, Hot().filename_col, src).status());
    }
    if (ds == hs) {
      DPFS_RETURN_IF_ERROR(UnlinkName(Shard(hs), src_parent, src_name, true));
    }
    if (dd == hs) {
      DPFS_RETURN_IF_ERROR(LinkName(Shard(hs), dst_parent, dst_name, true));
    }
    DPFS_RETURN_IF_ERROR(
        UpsertIntent(Shard(hs), "rename", src, dst, payload));
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }

  std::vector<std::size_t> followers = {hd, ds, dd};
  std::sort(followers.begin(), followers.end());
  followers.erase(std::unique(followers.begin(), followers.end()),
                  followers.end());
  for (const std::size_t shard : followers) {
    if (shard == hs) continue;
    DPFS_SHARD_COMMIT_GATE();
    if (shard == hd && hs != hd) {
      DPFS_RETURN_IF_ERROR(ApplyRenamePayload(Shard(shard), dst, payload));
    }
    if (shard == ds) {
      DPFS_RETURN_IF_ERROR(
          UnlinkName(Shard(shard), src_parent, src_name, true));
    }
    if (shard == dd) {
      DPFS_RETURN_IF_ERROR(LinkName(Shard(shard), dst_parent, dst_name, true));
    }
  }
  DPFS_SHARD_COMMIT_GATE();
  return DeleteIntent(Shard(hs), src);
}

Result<FileRecord> MetadataManager::DeleteFile(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  const auto [parent, name] = SplitPath(normalized);
  const std::size_t home = ShardOf(normalized);
  const std::size_t parent_shard = ShardOf(parent);
  ShardLocks locks(*this, {home, parent_shard});

  // Read under the delete's locks (LookupFile takes none), so the record
  // returned is exactly the one deleted.
  DPFS_ASSIGN_OR_RETURN(FileRecord record, LookupFile(normalized));

  const auto delete_file_rows = [&]() -> Status {
    DPFS_RETURN_IF_ERROR(
        DeleteEq(Shard(home), kAttrTable, Hot().filename_col, normalized)
            .status());
    return DeleteEq(Shard(home), kDistTable, Hot().filename_col, normalized)
        .status();
  };

  if (home == parent_shard) {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(delete_file_rows());
    DPFS_RETURN_IF_ERROR(UnlinkName(Shard(parent_shard), parent, name, true));
    DPFS_RETURN_IF_ERROR(txn.Commit());
    return record;
  }

  {
    Transaction txn(Shard(home));
    DPFS_RETURN_IF_ERROR(txn.Begin());
    DPFS_RETURN_IF_ERROR(delete_file_rows());
    DPFS_RETURN_IF_ERROR(
        UpsertIntent(Shard(home), "delete", normalized, "", ""));
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }
  DPFS_SHARD_COMMIT_GATE();
  DPFS_RETURN_IF_ERROR(UnlinkName(Shard(parent_shard), parent, name, true));
  DPFS_SHARD_COMMIT_GATE();
  DPFS_RETURN_IF_ERROR(DeleteIntent(Shard(home), normalized));
  return record;
}

}  // namespace dpfs::client
