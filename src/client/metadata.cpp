#include "client/metadata.h"

#include <sys/random.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "layout/replication.h"
#include "metadb/predicate.h"
#include "metadb/sql_ast.h"
#include "net/frame.h"

namespace dpfs::client {
namespace {

constexpr const char* kServerTable = "DPFS_SERVER";
constexpr const char* kDistTable = "DPFS_FILE_DISTRIBUTION";
constexpr const char* kDirTable = "DPFS_DIRECTORY";
constexpr const char* kAttrTable = "DPFS_FILE_ATTR";

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

  metadb::SelectStmt attr_all = MakeSelect(kAttrTable, {});
  metadb::SelectStmt attr_exists = MakeSelect(kAttrTable, {"filename"});
  metadb::SelectStmt dist_by_file =
      MakeSelect(kDistTable, {"server", "server_index", "bricklist", "replica"},
                 metadb::OrderBy{"server_index", false});
  metadb::SelectStmt servers_ordered =
      MakeSelect(kServerTable, {}, metadb::OrderBy{"server_name", false});
  metadb::SelectStmt dir_exists = MakeSelect(kDirTable, {"main_dir"});
  metadb::SelectStmt dir_lists = MakeSelect(kDirTable, {"sub_dirs", "files"});
  metadb::SelectStmt dir_files = MakeSelect(kDirTable, {"files"});
  metadb::SelectStmt dir_subdirs = MakeSelect(kDirTable, {"sub_dirs"});
};

const HotStatements& Hot() {
  static const HotStatements hot;
  return hot;
}

// Statement helpers. Each runs through `scope`: the operation's
// metadb::Transaction or metadb::ReadTransaction when it runs several
// statements, or the metadb::Database itself when it runs one.

template <typename Scope>
Result<metadb::ResultSet> SelectEq(Scope& scope, const metadb::SelectStmt& tpl,
                                   const metadb::ExprPtr& column,
                                   std::string_view key) {
  metadb::SelectStmt stmt = tpl;
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return scope.ExecuteStatement(std::move(stmt));
}

template <typename Scope>
Status InsertRow(Scope& scope, const char* table,
                 std::vector<metadb::Value> row) {
  metadb::InsertStmt stmt;
  stmt.table = table;
  stmt.rows.push_back(std::move(row));
  return scope.ExecuteStatement(std::move(stmt)).status();
}

template <typename Scope>
Result<metadb::ResultSet> DeleteEq(Scope& scope, const char* table,
                                   const metadb::ExprPtr& column,
                                   std::string_view key) {
  metadb::DeleteStmt stmt;
  stmt.table = table;
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return scope.ExecuteStatement(std::move(stmt));
}

template <typename Scope>
Result<metadb::ResultSet> UpdateEq(
    Scope& scope, const char* table,
    std::vector<std::pair<std::string, metadb::Value>> assignments,
    const metadb::ExprPtr& column, std::string_view key) {
  metadb::UpdateStmt stmt;
  stmt.table = table;
  stmt.assignments = std::move(assignments);
  stmt.where = metadb::MakeCompare(metadb::CompareOp::kEq, column,
                                   metadb::MakeLiteral(std::string(key)));
  return scope.ExecuteStatement(std::move(stmt));
}

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

/// Every registered server, in name order: one SELECT of the server table.
template <typename Scope>
Result<std::vector<ServerInfo>> AllServers(Scope& scope) {
  DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet result,
                        scope.ExecuteStatement(Hot().servers_ordered));
  std::vector<ServerInfo> servers;
  servers.reserve(result.size());
  for (std::size_t row = 0; row < result.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(ServerInfo server, ServerFromRow(result, row));
    servers.push_back(std::move(server));
  }
  return servers;
}

/// A fresh subfile id: "/" and 32 lowercase hex digits, 128 bits drawn from
/// the OS (getrandom), so ids do not repeat across processes.
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

// Each takes a normalized path.
template <typename Scope>
Result<bool> HasFile(Scope& scope, const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(scope, Hot().attr_exists, Hot().filename_col, path));
  return !result.empty();
}

template <typename Scope>
Result<bool> HasDirectory(Scope& scope, const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(scope, Hot().dir_exists, Hot().main_dir_col, path));
  return !result.empty();
}

/// Directory-list edits: link is add-if-absent, unlink is
/// remove-if-present; a missing directory row is a no-op. `file` selects
/// the files vs sub_dirs column.
Status LinkName(metadb::Transaction& txn, const std::string& dir,
                const std::string& name, bool file) {
  const HotStatements& hot = Hot();
  const char* column = file ? "files" : "sub_dirs";
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(txn, file ? hot.dir_files : hot.dir_subdirs, hot.main_dir_col,
               dir));
  if (row.empty()) return Status::Ok();
  DPFS_ASSIGN_OR_RETURN(const std::string list, row.GetText(0, column));
  std::vector<std::string> names = DecodeNameList(list);
  if (std::find(names.begin(), names.end(), name) != names.end()) {
    return Status::Ok();
  }
  names.push_back(name);
  return UpdateEq(txn, kDirTable, {{column, EncodeNameList(names)}},
                  hot.main_dir_col, dir)
      .status();
}

Status UnlinkName(metadb::Transaction& txn, const std::string& dir,
                  const std::string& name, bool file) {
  const HotStatements& hot = Hot();
  const char* column = file ? "files" : "sub_dirs";
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(txn, file ? hot.dir_files : hot.dir_subdirs, hot.main_dir_col,
               dir));
  if (row.empty()) return Status::Ok();
  DPFS_ASSIGN_OR_RETURN(const std::string list, row.GetText(0, column));
  std::vector<std::string> names = DecodeNameList(list);
  const auto end = std::remove(names.begin(), names.end(), name);
  if (end == names.end()) return Status::Ok();
  names.erase(end, names.end());
  return UpdateEq(txn, kDirTable, {{column, EncodeNameList(names)}},
                  hot.main_dir_col, dir)
      .status();
}

/// The file's record at `path` (normalized): its attribute row, its
/// distribution rows and one read of the server table, all through `scope`.
template <typename Scope>
Result<FileRecord> ReadRecord(Scope& scope, const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet attr,
      SelectEq(scope, Hot().attr_all, Hot().filename_col, path));
  if (attr.empty()) {
    return NotFoundError("no such file '" + path + "'");
  }

  FileRecord record;
  FileMeta& meta = record.meta;
  meta.path = path;
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

  // Distribution rows, ordered by server_index.
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet dist,
      SelectEq(scope, Hot().dist_by_file, Hot().filename_col, path));
  if (dist.empty()) {
    return DataLossError("file '" + path + "' has no distribution rows");
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
  // One read of the server table serves every rank-0 row's name.
  DPFS_ASSIGN_OR_RETURN(const std::vector<ServerInfo> registered,
                        AllServers(scope));
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
      const auto server = std::find_if(
          registered.begin(), registered.end(),
          [&](const ServerInfo& info) { return info.name == server_name; });
      if (server == registered.end()) {
        return NotFoundError("no server '" + server_name + "'");
      }
      record.servers[index] = *server;
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

Status EnsureTables(metadb::Transaction& txn) {
  static constexpr const char* kDdl[] = {
      "CREATE TABLE IF NOT EXISTS DPFS_SERVER ("
      "  server_name TEXT PRIMARY KEY, host TEXT, port INT,"
      "  capacity INT, performance INT)",
      kDistDdl,
      "CREATE TABLE IF NOT EXISTS DPFS_DIRECTORY ("
      "  main_dir TEXT PRIMARY KEY, sub_dirs TEXT, files TEXT)",
      kAttrDdl,
  };
  for (const char* ddl : kDdl) {
    DPFS_RETURN_IF_ERROR(txn.Execute(ddl).status());
  }
  // The root directory always exists.
  DPFS_ASSIGN_OR_RETURN(const bool root_exists, HasDirectory(txn, "/"));
  if (root_exists) return Status::Ok();
  return InsertRow(txn, kDirTable, {"/", "", ""});
}

/// Adds `column` as the last column of `table` unless it is already there;
/// each existing row gets fill(row). metadb has no ALTER TABLE, so this is a
/// read, drop, recreate from `ddl` and re-insert inside `txn`. DDL takes
/// part in transactions (undo restores the dropped table), so a crash
/// mid-upgrade leaves the old schema intact.
Status WidenTable(
    metadb::Transaction& txn, const char* table, std::string_view column,
    const char* ddl,
    const std::function<metadb::Value(const metadb::Row&)>& fill) {
  DPFS_ASSIGN_OR_RETURN(const metadb::ResultSet probe,
                        txn.ExecuteStatement(MakeSelect(table, {})));
  for (const std::string& name : probe.columns) {
    if (EqualsIgnoreCase(name, column)) return Status::Ok();
  }
  DPFS_RETURN_IF_ERROR(
      txn.Execute(std::string("DROP TABLE ") + table).status());
  DPFS_RETURN_IF_ERROR(txn.Execute(ddl).status());
  for (const metadb::Row& row : probe.rows) {
    std::vector<metadb::Value> widened = row;
    widened.push_back(fill(row));
    DPFS_RETURN_IF_ERROR(InsertRow(txn, table, std::move(widened)));
  }
  return Status::Ok();
}

}  // namespace

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
// Attach

Result<std::unique_ptr<MetadataManager>> MetadataManager::Attach(
    std::shared_ptr<metadb::Database> db) {
  {
    metadb::Transaction txn(*db);
    DPFS_RETURN_IF_ERROR(EnsureTables(txn));
    // Pre-replication rows become replica rank 0.
    DPFS_RETURN_IF_ERROR(WidenTable(
        txn, kDistTable, "replica", kDistDdl, [](const metadb::Row&) {
          return metadb::Value(static_cast<std::int64_t>(0));
        }));
    // Files from before subfile ids keep their path-named subfiles: the id
    // is the filename, and no server is touched.
    DPFS_RETURN_IF_ERROR(
        WidenTable(txn, kAttrTable, "subfile", kAttrDdl,
                   [](const metadb::Row& row) { return row[0]; }));
    DPFS_RETURN_IF_ERROR(
        txn.Execute("DROP TABLE IF EXISTS DPFS_ACCESS_LOG").status());
    DPFS_RETURN_IF_ERROR(txn.Commit());
  }
  // Distribution rows are keyed by filename (one row per server per file);
  // index them so DPFS-Open's lookup is a probe, not a scan.
  DPFS_RETURN_IF_ERROR(db->CreateIndex(kDistTable, "filename"));
  return std::unique_ptr<MetadataManager>(new MetadataManager(std::move(db)));
}

// ---------------------------------------------------------------------------
// Servers

Status MetadataManager::RegisterServer(const ServerInfo& server) {
  // A duplicate name is a primary-key error.
  return InsertRow(*db_, kServerTable,
                   {server.name, server.endpoint.host,
                    static_cast<std::int64_t>(server.endpoint.port),
                    static_cast<std::int64_t>(server.capacity_bytes),
                    static_cast<std::int64_t>(server.performance)});
}

Status MetadataManager::UnregisterServer(const std::string& name) {
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      DeleteEq(*db_, kServerTable, Hot().server_name_col, name));
  if (result.affected_rows == 0) {
    return NotFoundError("no server '" + name + "'");
  }
  return Status::Ok();
}

Result<std::vector<ServerInfo>> MetadataManager::ListServers() {
  return AllServers(*db_);
}

// ---------------------------------------------------------------------------
// Directories

Result<bool> MetadataManager::DirectoryExists(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  return HasDirectory(*db_, normalized);
}

Result<bool> MetadataManager::FileExists(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  return HasFile(*db_, normalized);
}

Status MetadataManager::MakeDirectory(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (normalized == "/") return AlreadyExistsError("'/' already exists");
  const auto [parent, name] = SplitPath(normalized);
  metadb::Transaction txn(*db_);

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists, HasDirectory(txn, parent));
  if (!parent_exists) {
    return NotFoundError("parent directory '" + parent + "' does not exist");
  }
  DPFS_ASSIGN_OR_RETURN(const bool exists, HasDirectory(txn, normalized));
  if (exists) {
    return AlreadyExistsError("directory '" + normalized + "' exists");
  }
  DPFS_ASSIGN_OR_RETURN(const bool file_exists, HasFile(txn, normalized));
  if (file_exists) {
    return AlreadyExistsError("'" + normalized + "' exists as a file");
  }

  // §5: update the parent row's sub-dirs and insert a new row.
  DPFS_RETURN_IF_ERROR(LinkName(txn, parent, name, false));
  DPFS_RETURN_IF_ERROR(InsertRow(txn, kDirTable, {normalized, "", ""}));
  return txn.Commit();
}

Result<MetadataManager::Listing> MetadataManager::ListDirectory(
    const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      SelectEq(*db_, Hot().dir_lists, Hot().main_dir_col, normalized));
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

Status MetadataManager::RemoveDirectory(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (normalized == "/") {
    return InvalidArgumentError("cannot remove the root directory");
  }
  const auto [parent, name] = SplitPath(normalized);
  metadb::Transaction txn(*db_);

  // The directory must exist and be empty.
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet row,
      SelectEq(txn, Hot().dir_lists, Hot().main_dir_col, normalized));
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

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists, HasDirectory(txn, parent));
  if (!parent_exists) {
    return InternalError("parent row missing for '" + normalized + "'");
  }

  DPFS_RETURN_IF_ERROR(UnlinkName(txn, parent, name, false));
  DPFS_RETURN_IF_ERROR(
      DeleteEq(txn, kDirTable, Hot().main_dir_col, normalized).status());
  return txn.Commit();
}

// ---------------------------------------------------------------------------
// Files

Result<FileRecord> MetadataManager::CreateFile(const FileMeta& meta,
                                               const PlacementHints& hints) {
  FileRecord record;
  record.meta = meta;
  DPFS_ASSIGN_OR_RETURN(record.meta.path, NormalizePath(meta.path));
  const std::string& normalized = record.meta.path;
  const auto [parent, name] = SplitPath(normalized);
  if (name.empty()) return InvalidArgumentError("file path must name a file");
  DPFS_ASSIGN_OR_RETURN(const layout::BrickMap map, meta.MakeBrickMap());
  // Every rank's bricklist must fit in the one file_record reply LookupFile
  // sends: a brick id below this bound and its comma take at most 10 bytes.
  const std::uint64_t ranks = std::max(hints.replication.factor, 1u);
  if (map.num_bricks() > net::kMaxFrameBytes / 10 / ranks) {
    return InvalidArgumentError(
        "file of " + std::to_string(map.num_bricks()) + " bricks x " +
        std::to_string(ranks) + " ranks: its bricklists exceed one frame");
  }
  metadb::Transaction txn(*db_);

  DPFS_ASSIGN_OR_RETURN(const bool parent_exists, HasDirectory(txn, parent));
  if (!parent_exists) {
    return NotFoundError("parent directory '" + parent + "' does not exist");
  }
  DPFS_ASSIGN_OR_RETURN(const bool exists, HasFile(txn, normalized));
  if (exists) {
    return AlreadyExistsError("file '" + normalized + "' exists");
  }
  DPFS_ASSIGN_OR_RETURN(const bool dir_exists, HasDirectory(txn, normalized));
  if (dir_exists) {
    return AlreadyExistsError("'" + normalized + "' exists as a directory");
  }

  // §4.1: the placement reads each server's performance number (and, for
  // kCapacityAware, how many whole bricks its advertised capacity holds).
  DPFS_ASSIGN_OR_RETURN(record.servers, AllServers(txn));
  if (record.servers.empty()) {
    return UnavailableError("no I/O servers registered in DPFS_SERVER");
  }
  if (hints.suggested_io_nodes > 0 &&
      hints.suggested_io_nodes < record.servers.size()) {
    record.servers.resize(hints.suggested_io_nodes);
  }
  DPFS_ASSIGN_OR_RETURN(record.meta.subfile, NewSubfileId());
  std::vector<std::uint32_t> performance;
  std::vector<std::uint64_t> capacity_bricks;
  for (const ServerInfo& server : record.servers) {
    performance.push_back(server.performance);
    capacity_bricks.push_back(server.capacity_bytes / map.brick_bytes());
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ReplicatedDistribution placed,
      layout::ReplicatedDistribution::Create(hints.policy, map.num_bricks(),
                                             performance, hints.replication,
                                             capacity_bricks));
  record.distribution = placed.primary();
  record.replicas.assign(placed.ranks().begin() + 1, placed.ranks().end());

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
      record.meta.subfile};

  // §5: the attribute row, one distribution row per (server, rank), and the
  // parent directory's link commit in the transaction of the checks above.
  DPFS_RETURN_IF_ERROR(InsertRow(txn, kAttrTable, std::move(attr_row)));
  for (std::uint32_t rank = 0; rank < record.replication(); ++rank) {
    const layout::BrickDistribution& rank_dist =
        record.rank_distribution(rank);
    for (std::uint32_t server = 0; server < rank_dist.num_servers();
         ++server) {
      DPFS_RETURN_IF_ERROR(InsertRow(
          txn, kDistTable,
          {normalized, record.servers[server].name,
           static_cast<std::int64_t>(server),
           layout::BrickDistribution::EncodeBrickList(
               rank_dist.bricks_on(server)),
           static_cast<std::int64_t>(rank)}));
    }
  }
  DPFS_RETURN_IF_ERROR(LinkName(txn, parent, name, true));
  DPFS_RETURN_IF_ERROR(txn.Commit());
  return record;
}

Result<FileRecord> MetadataManager::LookupFile(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  const metadb::ReadTransaction read(*db_);
  return ReadRecord(read, normalized);
}

Status MetadataManager::SetPermission(const std::string& path,
                                      std::uint32_t permission) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      UpdateEq(*db_, kAttrTable,
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
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet result,
      UpdateEq(*db_, kAttrTable, {{"owner", owner}}, Hot().filename_col,
               normalized));
  if (result.affected_rows == 0) {
    return NotFoundError("no such file '" + normalized + "'");
  }
  return Status::Ok();
}

Status MetadataManager::RenameFile(const std::string& from,
                                   const std::string& to) {
  DPFS_ASSIGN_OR_RETURN(const std::string src, NormalizePath(from));
  DPFS_ASSIGN_OR_RETURN(const std::string dst, NormalizePath(to));
  const auto [src_parent, src_name] = SplitPath(src);
  const auto [dst_parent, dst_name] = SplitPath(dst);
  metadb::Transaction txn(*db_);

  DPFS_ASSIGN_OR_RETURN(const bool src_exists, HasFile(txn, src));
  if (!src_exists) return NotFoundError("no such file '" + src + "'");
  if (src == dst) return Status::Ok();
  DPFS_ASSIGN_OR_RETURN(const bool dst_exists, HasFile(txn, dst));
  if (dst_exists) return AlreadyExistsError("file '" + dst + "' exists");
  DPFS_ASSIGN_OR_RETURN(const bool dst_is_dir, HasDirectory(txn, dst));
  if (dst_is_dir) return AlreadyExistsError("'" + dst + "' is a directory");
  if (dst_name.empty()) {
    return InvalidArgumentError("rename target must name a file");
  }
  DPFS_ASSIGN_OR_RETURN(const bool parent_exists,
                        HasDirectory(txn, dst_parent));
  if (!parent_exists) {
    return NotFoundError("target directory '" + dst_parent +
                         "' does not exist");
  }

  DPFS_RETURN_IF_ERROR(
      UpdateEq(txn, kAttrTable, {{"filename", dst}}, Hot().filename_col, src)
          .status());
  DPFS_RETURN_IF_ERROR(
      UpdateEq(txn, kDistTable, {{"filename", dst}}, Hot().filename_col, src)
          .status());
  DPFS_RETURN_IF_ERROR(UnlinkName(txn, src_parent, src_name, true));
  DPFS_RETURN_IF_ERROR(LinkName(txn, dst_parent, dst_name, true));
  return txn.Commit();
}

Result<FileRecord> MetadataManager::DeleteFile(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  const auto [parent, name] = SplitPath(normalized);
  metadb::Transaction txn(*db_);

  // Read in the delete's transaction, so the record returned is exactly the
  // one deleted.
  DPFS_ASSIGN_OR_RETURN(FileRecord record, ReadRecord(txn, normalized));
  DPFS_RETURN_IF_ERROR(
      DeleteEq(txn, kAttrTable, Hot().filename_col, normalized).status());
  DPFS_RETURN_IF_ERROR(
      DeleteEq(txn, kDistTable, Hot().filename_col, normalized).status());
  DPFS_RETURN_IF_ERROR(UnlinkName(txn, parent, name, true));
  DPFS_RETURN_IF_ERROR(txn.Commit());
  return record;
}

}  // namespace dpfs::client
