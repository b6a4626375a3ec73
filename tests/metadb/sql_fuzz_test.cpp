// Robustness: pseudo-random inputs must never crash the SQL front end or
// the engine, and a shadow-model check keeps randomized INSERT/DELETE
// sequences honest.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "metadb/database.h"
#include "metadb/sql_parser.h"

namespace dpfs::metadb {
namespace {

class SqlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlFuzzTest, RandomTokenSoupNeverCrashesParser) {
  SplitMix64 rng(GetParam() * 104729 + 17);
  static constexpr const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "INSERT", "INTO",   "VALUES", "UPDATE",
      "SET",    "DELETE", "CREATE", "TABLE", "DROP",  "BEGIN",  "COMMIT",
      "ROLLBACK", "AND", "OR",    "NOT",    "IS",     "NULL",   "ORDER",
      "BY",     "LIMIT", "(",     ")",      ",",      "*",      "=",
      "!=",     "<",     "<=",    ">",      ">=",     ";",      "t",
      "a",      "b",     "42",    "-7",     "3.5",    "'str'",  "''",
      "PRIMARY", "KEY",  "INT",   "TEXT",   "DOUBLE", "IF",     "EXISTS"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string sql;
    const std::uint64_t length = 1 + rng.NextBelow(15);
    for (std::uint64_t i = 0; i < length; ++i) {
      sql += kTokens[rng.NextBelow(std::size(kTokens))];
      sql += ' ';
    }
    // Must return ok-or-error, never crash or hang.
    (void)ParseStatement(sql);
  }
}

TEST_P(SqlFuzzTest, RandomBytesNeverCrashLexer) {
  SplitMix64 rng(GetParam() * 2741 + 3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string sql;
    const std::uint64_t length = rng.NextBelow(64);
    for (std::uint64_t i = 0; i < length; ++i) {
      sql += static_cast<char>(rng.NextBelow(128));
    }
    (void)ParseStatement(sql);
  }
}

TEST_P(SqlFuzzTest, RandomStatementsAgainstEngineNeverCrash) {
  SplitMix64 rng(GetParam() * 15485863 + 11);
  auto db = Database::OpenInMemory();
  (void)db->Execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v DOUBLE)");
  std::optional<Transaction> txn;  // the open transaction, if any
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t id = rng.NextBelow(40);
    std::string sql;
    switch (rng.NextBelow(6)) {
      case 0:
        sql = "INSERT INTO t VALUES (" + std::to_string(id) + ", 'n" +
              std::to_string(id) + "', " + std::to_string(id) + ".5)";
        break;
      case 1:
        sql = "DELETE FROM t WHERE id = " + std::to_string(id);
        break;
      case 2:
        sql = "UPDATE t SET v = " + std::to_string(id) + " WHERE id >= " +
              std::to_string(id);
        break;
      case 3:
        sql = "SELECT * FROM t WHERE name = 'n" + std::to_string(id) +
              "' OR v < " + std::to_string(id);
        break;
      case 4:
        // Begin a transaction, or roll the open one back.
        if (rng.NextBelow(2) == 0) {
          if (!txn.has_value()) txn.emplace(*db);
        } else {
          txn.reset();
        }
        continue;
      case 5:
        if (rng.NextBelow(2) == 0) {
          if (txn.has_value()) (void)txn->Commit();
          txn.reset();
          continue;
        }
        sql = "SELECT id FROM t ORDER BY id DESC LIMIT 5";
        break;
    }
    // Errors fine, crashes not.
    (void)(txn.has_value() ? txn->Execute(sql) : db->Execute(sql));
  }
  // Engine still sane afterwards.
  txn.reset();
  EXPECT_TRUE(db->Execute("SELECT * FROM t").ok());
}

TEST_P(SqlFuzzTest, InsertDeleteShadowModel) {
  SplitMix64 rng(GetParam() * 6700417 + 29);
  auto db = Database::OpenInMemory();
  (void)db->Execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
  std::map<std::int64_t, std::int64_t> shadow;

  for (int op = 0; op < 200; ++op) {
    const std::int64_t key = static_cast<std::int64_t>(rng.NextBelow(30));
    const std::int64_t value = static_cast<std::int64_t>(rng.NextBelow(1000));
    switch (rng.NextBelow(3)) {
      case 0: {
        const bool ok = db->Execute("INSERT INTO kv VALUES (" +
                                    std::to_string(key) + ", " +
                                    std::to_string(value) + ")")
                            .ok();
        EXPECT_EQ(ok, !shadow.contains(key)) << "op " << op;
        if (ok) shadow[key] = value;
        break;
      }
      case 1: {
        const auto result = db->Execute("DELETE FROM kv WHERE k = " +
                                        std::to_string(key));
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().affected_rows, shadow.erase(key));
        break;
      }
      case 2: {
        const auto result = db->Execute("UPDATE kv SET v = " +
                                        std::to_string(value) +
                                        " WHERE k = " + std::to_string(key));
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().affected_rows,
                  shadow.contains(key) ? 1u : 0u);
        if (shadow.contains(key)) shadow[key] = value;
        break;
      }
    }
  }

  // Final state must match the shadow exactly.
  const auto all = db->Execute("SELECT k, v FROM kv ORDER BY k").value();
  ASSERT_EQ(all.size(), shadow.size());
  std::size_t row = 0;
  for (const auto& [key, value] : shadow) {
    EXPECT_EQ(all.GetInt(row, "k").value(), key);
    EXPECT_EQ(all.GetInt(row, "v").value(), value);
    ++row;
  }
}

TEST_P(SqlFuzzTest, TransactionalShadowModel) {
  // Random transactions that either commit or roll back; the shadow applies
  // a transaction's effects only on COMMIT. Exercises the undo log hard.
  SplitMix64 rng(GetParam() * 7907 + 41);
  auto db = Database::OpenInMemory();
  (void)db->Execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
  std::map<std::int64_t, std::int64_t> shadow;

  for (int round = 0; round < 40; ++round) {
    {
      Transaction txn(*db);
      // nullopt = deleted
      std::map<std::int64_t, std::optional<std::int64_t>> pending;
      const auto effective =
          [&](std::int64_t key) -> std::optional<std::int64_t> {
        const auto it = pending.find(key);
        if (it != pending.end()) return it->second;
        const auto base = shadow.find(key);
        if (base != shadow.end()) return base->second;
        return std::nullopt;
      };
      const int ops = 1 + static_cast<int>(rng.NextBelow(8));
      for (int op = 0; op < ops; ++op) {
        const std::int64_t key = static_cast<std::int64_t>(rng.NextBelow(20));
        const std::int64_t value =
            static_cast<std::int64_t>(rng.NextBelow(1000));
        switch (rng.NextBelow(3)) {
          case 0: {
            const bool ok =
                txn.Execute("INSERT INTO kv VALUES (" + std::to_string(key) +
                            ", " + std::to_string(value) + ")")
                    .ok();
            ASSERT_EQ(ok, !effective(key).has_value()) << "round " << round;
            if (ok) pending[key] = value;
            break;
          }
          case 1: {
            const auto result = txn.Execute("DELETE FROM kv WHERE k = " +
                                            std::to_string(key));
            ASSERT_TRUE(result.ok());
            ASSERT_EQ(result.value().affected_rows,
                      effective(key).has_value() ? 1u : 0u);
            pending[key] = std::nullopt;
            break;
          }
          case 2: {
            const auto result =
                txn.Execute("UPDATE kv SET v = " + std::to_string(value) +
                            " WHERE k = " + std::to_string(key));
            ASSERT_TRUE(result.ok());
            if (effective(key).has_value()) pending[key] = value;
            break;
          }
        }
      }
      if (rng.NextBelow(2) == 0) {
        ASSERT_TRUE(txn.Commit().ok());
        for (const auto& [key, value] : pending) {
          if (value.has_value()) {
            shadow[key] = *value;
          } else {
            shadow.erase(key);
          }
        }
      }
    }  // an uncommitted transaction rolls back here

    // After every transaction boundary the table must equal the shadow.
    const auto all = db->Execute("SELECT k, v FROM kv ORDER BY k").value();
    ASSERT_EQ(all.size(), shadow.size()) << "round " << round;
    std::size_t row = 0;
    for (const auto& [key, value] : shadow) {
      ASSERT_EQ(all.GetInt(row, "k").value(), key);
      ASSERT_EQ(all.GetInt(row, "v").value(), value);
      ++row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dpfs::metadb
