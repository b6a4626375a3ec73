// Parsed statement forms for the DPFS SQL subset.
//
// Supported statements (enough to express everything the paper does with
// POSTGRES; a transaction is a scope, metadb::Transaction, not a statement):
//   CREATE TABLE [IF NOT EXISTS] t (col TYPE [PRIMARY KEY], ...)
//   DROP TABLE [IF EXISTS] t
//   INSERT INTO t [(cols)] VALUES (v, ...) [, (v, ...) ...]
//   SELECT cols|* FROM t [WHERE expr] [ORDER BY col [ASC|DESC]] [LIMIT n]
//   UPDATE t SET col = literal, ... [WHERE expr]
//   DELETE FROM t [WHERE expr]
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "metadb/predicate.h"
#include "metadb/schema.h"

namespace dpfs::metadb {

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = schema order
  std::vector<std::vector<Value>> rows;
};

struct OrderBy {
  std::string column;
  bool descending = false;
};

struct SelectStmt {
  std::vector<std::string> columns;  // empty = '*'
  bool count_only = false;           // SELECT COUNT(*) — yields one int row
  std::string table;
  ExprPtr where;  // may be null
  std::optional<OrderBy> order_by;
  std::optional<std::size_t> limit;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, Value>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // may be null
};

using Statement = std::variant<CreateTableStmt, DropTableStmt, InsertStmt,
                               SelectStmt, UpdateStmt, DeleteStmt>;

}  // namespace dpfs::metadb
