// Unit tests of the write-ahead log layer itself (the recovery_test file
// covers the Database-level behaviour).
#include "metadb/wal.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace dpfs::metadb {
namespace {

WalRecord InsertRecord(const std::string& table, RowId id, Row row) {
  WalRecord record;
  record.kind = WalRecordKind::kInsert;
  record.table = table;
  record.row_id = id;
  record.row = std::move(row);
  return record;
}

TEST(WalRecordTest, EncodeDecodeAllKinds) {
  WalRecord create;
  create.kind = WalRecordKind::kCreateTable;
  create.txn_id = 3;
  create.table = "t";
  create.schema = Schema::Create({{"a", ValueType::kInt, true},
                                  {"b", ValueType::kText, false}})
                      .value();
  const WalRecord decoded_create =
      WalRecord::Decode(create.Encode()).value();
  EXPECT_EQ(decoded_create.kind, WalRecordKind::kCreateTable);
  EXPECT_EQ(decoded_create.txn_id, 3u);
  EXPECT_EQ(decoded_create.schema.columns(), create.schema.columns());

  const WalRecord insert =
      InsertRecord("t", 9, {Value(std::int64_t{1}), Value("x")});
  const WalRecord decoded_insert =
      WalRecord::Decode(insert.Encode()).value();
  EXPECT_EQ(decoded_insert.kind, WalRecordKind::kInsert);
  EXPECT_EQ(decoded_insert.row_id, 9u);
  ASSERT_EQ(decoded_insert.row.size(), 2u);
  EXPECT_EQ(decoded_insert.row[1].AsText(), "x");

  WalRecord erase;
  erase.kind = WalRecordKind::kDelete;
  erase.table = "t";
  erase.row_id = 4;
  EXPECT_EQ(WalRecord::Decode(erase.Encode()).value().row_id, 4u);

  WalRecord drop;
  drop.kind = WalRecordKind::kDropTable;
  drop.table = "gone";
  EXPECT_EQ(WalRecord::Decode(drop.Encode()).value().table, "gone");
}

TEST(WalRecordTest, DecodeRejectsGarbage) {
  Bytes garbage = {99, 0, 0, 0};
  EXPECT_FALSE(WalRecord::Decode(garbage).ok());
  Bytes empty;
  EXPECT_FALSE(WalRecord::Decode(empty).ok());
  // Trailing bytes after a valid record are an error.
  WalRecord begin;
  begin.kind = WalRecordKind::kBegin;
  Bytes padded = begin.Encode();
  padded.push_back(0xFF);
  EXPECT_FALSE(WalRecord::Decode(padded).ok());
}

class WalFileTest : public ::testing::Test {
 protected:
  WalFileTest() : dir_(TempDir::Create("dpfs-wal").value()) {}

  std::filesystem::path LogPath() { return dir_.path() / "wal.log"; }

  /// Opens the WAL collecting the replayed operation records.
  Result<WriteAheadLog> OpenCollecting(std::vector<WalRecord>* out,
                                       std::uint64_t* max_txn = nullptr) {
    std::uint64_t ignored = 0;
    return WriteAheadLog::Open(
        LogPath(),
        [out](const WalRecord& record) {
          out->push_back(record);
          return Status::Ok();
        },
        max_txn != nullptr ? max_txn : &ignored);
  }

  TempDir dir_;
};

TEST_F(WalFileTest, FreshLogReplaysNothing) {
  std::vector<WalRecord> replayed;
  WriteAheadLog wal = OpenCollecting(&replayed).value();
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(wal.size_bytes(), 0u);
}

TEST_F(WalFileTest, AppendThenReplayRoundTrip) {
  {
    std::vector<WalRecord> replayed;
    WriteAheadLog wal = OpenCollecting(&replayed).value();
    ASSERT_TRUE(
        wal.AppendTransaction(
               1, {InsertRecord("t", 1, {Value(std::int64_t{10})}),
                   InsertRecord("t", 2, {Value(std::int64_t{20})})})
            .ok());
    ASSERT_TRUE(
        wal.AppendTransaction(2, {InsertRecord("t", 3,
                                               {Value(std::int64_t{30})})})
            .ok());
    EXPECT_GT(wal.size_bytes(), 0u);
  }
  std::vector<WalRecord> replayed;
  std::uint64_t max_txn = 0;
  WriteAheadLog wal = OpenCollecting(&replayed, &max_txn).value();
  ASSERT_EQ(replayed.size(), 3u);  // only ops, never BEGIN/COMMIT
  EXPECT_EQ(replayed[0].row_id, 1u);
  EXPECT_EQ(replayed[2].row[0].AsInt(), 30);
  EXPECT_EQ(max_txn, 2u);
}

TEST_F(WalFileTest, EmptyTransactionIsReplayableNoise) {
  {
    std::vector<WalRecord> replayed;
    WriteAheadLog wal = OpenCollecting(&replayed).value();
    ASSERT_TRUE(wal.AppendTransaction(1, {}).ok());
  }
  std::vector<WalRecord> replayed;
  WriteAheadLog wal = OpenCollecting(&replayed).value();
  EXPECT_TRUE(replayed.empty());
}

TEST_F(WalFileTest, RewriteReplacesTheLogWithItsBase) {
  WalRecord create;
  create.kind = WalRecordKind::kCreateTable;
  create.table = "t";
  create.schema = Schema::Create({{"a", ValueType::kText, false}}).value();
  {
    std::vector<WalRecord> replayed;
    WriteAheadLog wal = OpenCollecting(&replayed).value();
    EXPECT_EQ(wal.base_bytes(), 0u);
    for (std::uint64_t txn = 1; txn <= 20; ++txn) {
      ASSERT_TRUE(
          wal.AppendTransaction(txn, {InsertRecord("t", txn, {Value("v")})})
              .ok());
    }
    const std::uint64_t appended = wal.size_bytes();
    ASSERT_TRUE(wal.Rewrite({create, InsertRecord("t", 7, {Value("base")})})
                    .ok());
    EXPECT_EQ(wal.size_bytes(), wal.base_bytes());
    EXPECT_LT(wal.size_bytes(), appended);
    EXPECT_EQ(std::filesystem::file_size(LogPath()), wal.base_bytes());
    EXPECT_FALSE(std::filesystem::exists(dir_.path() / "wal.log.tmp"));
    // Appending still works after the rewrite, behind the base.
    ASSERT_TRUE(
        wal.AppendTransaction(21, {InsertRecord("t", 8, {Value("w")})}).ok());
    EXPECT_EQ(std::filesystem::file_size(LogPath()), wal.size_bytes());
  }
  // A reopen replays the base, then the appends.
  std::vector<WalRecord> replayed;
  std::uint64_t max_txn = 0;
  WriteAheadLog wal = OpenCollecting(&replayed, &max_txn).value();
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].kind, WalRecordKind::kCreateTable);
  EXPECT_EQ(replayed[0].txn_id, 0u);
  EXPECT_EQ(replayed[1].row_id, 7u);
  EXPECT_EQ(replayed[1].row[0].AsText(), "base");
  EXPECT_EQ(replayed[2].row_id, 8u);
  EXPECT_EQ(max_txn, 21u);
  EXPECT_GT(wal.base_bytes(), 0u);
  EXPECT_LT(wal.base_bytes(), wal.size_bytes());
}

TEST_F(WalFileTest, ReplayErrorPropagates) {
  {
    std::vector<WalRecord> replayed;
    WriteAheadLog wal = OpenCollecting(&replayed).value();
    ASSERT_TRUE(
        wal.AppendTransaction(1, {InsertRecord("t", 1, {Value("v")})}).ok());
  }
  std::uint64_t max_txn = 0;
  const Result<WriteAheadLog> reopened = WriteAheadLog::Open(
      LogPath(),
      [](const WalRecord&) { return InternalError("apply failed"); },
      &max_txn);
  EXPECT_FALSE(reopened.ok());
}

}  // namespace
}  // namespace dpfs::metadb
