// In-memory table with stable row identities and an optional unique
// primary-key index.
//
// Row identities (RowId) are never reused while the table is open, which
// lets the transaction layer record precise undo information and the WAL
// replay deterministic mutations. A compacted log keeps the live rows' ids,
// so a reopened table may reissue only ids that no record names any more.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "metadb/predicate.h"
#include "metadb/schema.h"

namespace dpfs::metadb {

using RowId = std::uint64_t;

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Validates, coerces, checks primary-key uniqueness, and stores the row.
  /// Returns the new RowId.
  Result<RowId> Insert(Row row);

  /// Inserts with a caller-chosen RowId (WAL replay). Fails if the id exists.
  Status InsertWithId(RowId id, Row row);

  /// Full row replacement; re-validates and maintains the PK index.
  Status UpdateRow(RowId id, Row new_row);

  /// Removes the row; kNotFound if absent.
  Status Erase(RowId id);

  [[nodiscard]] Result<Row> Get(RowId id) const;

  /// Primary-key point lookup; kNotFound when absent or no PK declared.
  [[nodiscard]] Result<RowId> LookupByPrimaryKey(const Value& key) const;

  /// Builds a non-unique secondary index over `column`, maintained by all
  /// later mutations. Idempotent per column.
  Status CreateIndex(std::string_view column);
  [[nodiscard]] bool HasIndex(std::size_t column_index) const noexcept;
  /// RowIds whose `column_index` cell equals `key` (ascending order).
  /// Requires an index on that column.
  [[nodiscard]] Result<std::vector<RowId>> LookupByIndex(
      std::size_t column_index, const Value& key) const;

  /// All (id, row) pairs matching `filter` (nullptr = all), in RowId order.
  [[nodiscard]] Result<std::vector<std::pair<RowId, Row>>> Scan(
      const Expr* filter) const;

  /// Iteration support for WAL compaction.
  [[nodiscard]] const std::map<RowId, Row>& rows() const noexcept {
    return rows_;
  }

 private:
  /// Canonical byte encoding used as the PK map key.
  static std::string EncodeKey(const Value& value);
  Status CheckPrimaryKey(const Row& row, std::optional<RowId> ignore_id) const;
  void IndexInsert(const Row& row, RowId id);
  void IndexErase(const Row& row, RowId id);

  std::string name_;
  Schema schema_;
  std::map<RowId, Row> rows_;
  std::map<std::string, RowId> pk_index_;
  /// column index → (encoded key → sorted row ids).
  std::map<std::size_t, std::map<std::string, std::vector<RowId>>>
      secondary_indexes_;
  RowId next_row_id_ = 1;
};

}  // namespace dpfs::metadb
