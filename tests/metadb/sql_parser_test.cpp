#include "metadb/sql_parser.h"

#include <gtest/gtest.h>

namespace dpfs::metadb {
namespace {

Statement Parse(std::string_view sql) {
  const Result<Statement> result = ParseStatement(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
  return result.value();
}

TEST(SqlParserTest, CreateTable) {
  const auto stmt = std::get<CreateTableStmt>(Parse(
      "CREATE TABLE DPFS_SERVER (server_name TEXT PRIMARY KEY, "
      "capacity INT, performance INT)"));
  EXPECT_EQ(stmt.table, "DPFS_SERVER");
  ASSERT_EQ(stmt.columns.size(), 3u);
  EXPECT_EQ(stmt.columns[0].name, "server_name");
  EXPECT_EQ(stmt.columns[0].type, ValueType::kText);
  EXPECT_TRUE(stmt.columns[0].primary_key);
  EXPECT_EQ(stmt.columns[1].type, ValueType::kInt);
  EXPECT_FALSE(stmt.if_not_exists);
}

TEST(SqlParserTest, CreateTableIfNotExists) {
  const auto stmt = std::get<CreateTableStmt>(
      Parse("CREATE TABLE IF NOT EXISTS t (a INT)"));
  EXPECT_TRUE(stmt.if_not_exists);
}

TEST(SqlParserTest, ColumnTypeAliases) {
  const auto stmt = std::get<CreateTableStmt>(Parse(
      "CREATE TABLE t (a INTEGER, b BIGINT, c REAL, d FLOAT, e VARCHAR, "
      "f STRING, g DOUBLE)"));
  EXPECT_EQ(stmt.columns[0].type, ValueType::kInt);
  EXPECT_EQ(stmt.columns[1].type, ValueType::kInt);
  EXPECT_EQ(stmt.columns[2].type, ValueType::kDouble);
  EXPECT_EQ(stmt.columns[3].type, ValueType::kDouble);
  EXPECT_EQ(stmt.columns[4].type, ValueType::kText);
  EXPECT_EQ(stmt.columns[5].type, ValueType::kText);
  EXPECT_EQ(stmt.columns[6].type, ValueType::kDouble);
}

TEST(SqlParserTest, UnknownTypeRejected) {
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a BLOB)").ok());
}

TEST(SqlParserTest, DropTable) {
  EXPECT_EQ(std::get<DropTableStmt>(Parse("DROP TABLE t")).table, "t");
  EXPECT_TRUE(std::get<DropTableStmt>(Parse("DROP TABLE IF EXISTS t"))
                  .if_exists);
}

TEST(SqlParserTest, InsertValues) {
  const auto stmt = std::get<InsertStmt>(
      Parse("INSERT INTO t VALUES (1, 'two', 3.5, NULL)"));
  EXPECT_EQ(stmt.table, "t");
  EXPECT_TRUE(stmt.columns.empty());
  ASSERT_EQ(stmt.rows.size(), 1u);
  ASSERT_EQ(stmt.rows[0].size(), 4u);
  EXPECT_EQ(stmt.rows[0][0].AsInt(), 1);
  EXPECT_EQ(stmt.rows[0][1].AsText(), "two");
  EXPECT_DOUBLE_EQ(stmt.rows[0][2].AsDouble(), 3.5);
  EXPECT_TRUE(stmt.rows[0][3].is_null());
}

TEST(SqlParserTest, InsertWithColumnsAndMultipleRows) {
  const auto stmt = std::get<InsertStmt>(
      Parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)"));
  ASSERT_EQ(stmt.columns.size(), 2u);
  EXPECT_EQ(stmt.columns[1], "b");
  ASSERT_EQ(stmt.rows.size(), 2u);
  EXPECT_EQ(stmt.rows[1][0].AsInt(), 3);
}

TEST(SqlParserTest, SelectStar) {
  const auto stmt = std::get<SelectStmt>(Parse("SELECT * FROM t"));
  EXPECT_TRUE(stmt.columns.empty());
  EXPECT_EQ(stmt.table, "t");
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(SqlParserTest, SelectColumnsWhere) {
  const auto stmt = std::get<SelectStmt>(
      Parse("SELECT a, b FROM t WHERE a = 1 AND b != 'x'"));
  ASSERT_EQ(stmt.columns.size(), 2u);
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->ToString(), "((a = 1) AND (b != 'x'))");
}

TEST(SqlParserTest, WherePrecedenceOrLowerThanAnd) {
  const auto stmt = std::get<SelectStmt>(
      Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  EXPECT_EQ(stmt.where->ToString(), "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(SqlParserTest, WhereParentheses) {
  const auto stmt = std::get<SelectStmt>(
      Parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3"));
  EXPECT_EQ(stmt.where->ToString(), "(((a = 1) OR (b = 2)) AND (c = 3))");
}

TEST(SqlParserTest, WhereNotAndIsNull) {
  const auto stmt = std::get<SelectStmt>(
      Parse("SELECT * FROM t WHERE NOT a IS NULL AND b IS NOT NULL"));
  EXPECT_EQ(stmt.where->ToString(),
            "((NOT (a IS NULL)) AND (b IS NOT NULL))");
}

TEST(SqlParserTest, OrderByAndLimit) {
  const auto stmt = std::get<SelectStmt>(
      Parse("SELECT * FROM t ORDER BY size DESC LIMIT 10"));
  ASSERT_TRUE(stmt.order_by.has_value());
  EXPECT_EQ(stmt.order_by->column, "size");
  EXPECT_TRUE(stmt.order_by->descending);
  EXPECT_EQ(stmt.limit.value(), 10u);
}

TEST(SqlParserTest, OrderByAscDefault) {
  const auto stmt =
      std::get<SelectStmt>(Parse("SELECT * FROM t ORDER BY name ASC"));
  EXPECT_FALSE(stmt.order_by->descending);
}

TEST(SqlParserTest, NegativeLimitRejected) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t LIMIT -1").ok());
}

TEST(SqlParserTest, Update) {
  const auto stmt = std::get<UpdateStmt>(
      Parse("UPDATE t SET size = 100, owner = 'me' WHERE name = 'f'"));
  EXPECT_EQ(stmt.table, "t");
  ASSERT_EQ(stmt.assignments.size(), 2u);
  EXPECT_EQ(stmt.assignments[0].first, "size");
  EXPECT_EQ(stmt.assignments[0].second.AsInt(), 100);
  EXPECT_EQ(stmt.assignments[1].second.AsText(), "me");
  ASSERT_NE(stmt.where, nullptr);
}

TEST(SqlParserTest, UpdateWithoutWhere) {
  const auto stmt = std::get<UpdateStmt>(Parse("UPDATE t SET a = 1"));
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(SqlParserTest, Delete) {
  const auto stmt =
      std::get<DeleteStmt>(Parse("DELETE FROM t WHERE size > 10"));
  EXPECT_EQ(stmt.table, "t");
  EXPECT_EQ(stmt.where->ToString(), "(size > 10)");
}

TEST(SqlParserTest, TransactionStatements) {
  // A transaction is a scope (metadb::Transaction), not a statement.
  for (const char* sql : {"BEGIN", "COMMIT;", "rollback"}) {
    const Result<Statement> parsed = ParseStatement(sql);
    ASSERT_FALSE(parsed.ok()) << sql;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST(SqlParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(ParseStatement("SELECT * FROM t;").ok());
}

TEST(SqlParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t garbage").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t; SELECT * FROM u").ok());
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseStatement("select * from T where A = 1 order by A").ok());
}

TEST(SqlParserTest, ComparisonBetweenTwoColumns) {
  const auto stmt =
      std::get<SelectStmt>(Parse("SELECT * FROM t WHERE a < b"));
  EXPECT_EQ(stmt.where->ToString(), "(a < b)");
}

TEST(SqlParserTest, MalformedStatementsRejected) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("SELEC * FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t ()").ok());
  EXPECT_FALSE(ParseStatement("UPDATE t WHERE a = 1").ok());
  EXPECT_FALSE(ParseStatement("DELETE t").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE a =").ok());
}

}  // namespace
}  // namespace dpfs::metadb
