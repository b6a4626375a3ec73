// Write-ahead log for the metadata database, and its only file.
//
// Record stream layout (all little-endian):
//   [u32 payload_len][u32 crc32c(payload)][payload]
// payload = [u8 kind][u64 txn_id][kind-specific body]
//
// Mutations are buffered per transaction and appended as
// BEGIN, op..., COMMIT at commit time in one write (fdatasync'd only with
// sync commits), so a torn tail (crash mid-append) never exposes a
// half-applied transaction: replay applies only transactions whose COMMIT
// record survived intact.
//
// Rewrite compacts the log into a base: one transaction with txn id 0
// (real transactions start at 1) holding a CREATE TABLE per table and an
// INSERT per row. A base is written whole to "<log>.tmp", fsync'd and
// renamed over the log, so it is never torn; a damaged base is data loss,
// not a tail to discard.
#pragma once

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "metadb/schema.h"
#include "metadb/table.h"

namespace dpfs::metadb {

enum class WalRecordKind : std::uint8_t {
  kBegin = 1,
  kCommit = 2,
  kCreateTable = 3,
  kDropTable = 4,
  kInsert = 5,
  kUpdate = 6,
  kDelete = 7,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kBegin;
  std::uint64_t txn_id = 0;
  std::string table;   // create/drop/insert/update/delete
  Schema schema;       // create
  RowId row_id = 0;    // insert/update/delete
  Row row;             // insert/update

  [[nodiscard]] Bytes Encode() const;
  static Result<WalRecord> Decode(ByteSpan payload);
};

/// Append-only WAL file. One writer at a time (the Database serializes).
class WriteAheadLog {
 public:
  /// Opens (creating if needed) and replays existing committed transactions
  /// through `apply`, which is invoked once per operation record (never for
  /// kBegin/kCommit) in commit order. Returns the WAL positioned for
  /// appending, plus the highest txn id seen.
  ///
  /// A damaged base, a base without its COMMIT, or a first record that is
  /// all there but is no intact BEGIN (so the log cannot say whether it
  /// starts with a base) fails with kDataLoss, and nothing is written.
  /// Otherwise the incomplete or damaged tail after the last intact COMMIT
  /// is truncated away, logged and counted in metadb.wal_discarded_bytes,
  /// and a "<path>.tmp" left by a rewrite that crashed before its rename is
  /// deleted.
  static Result<WriteAheadLog> Open(
      const std::filesystem::path& path,
      const std::function<Status(const WalRecord&)>& apply,
      std::uint64_t* max_txn_id);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Appends a full transaction (BEGIN + ops + COMMIT) and flushes to disk.
  /// After a failed append the log may end in a partial frame, or hold a
  /// frame whose durability is unknown, so it refuses every later append
  /// and Rewrite, naming the first failure, until it is reopened.
  Status AppendTransaction(std::uint64_t txn_id,
                           const std::vector<WalRecord>& ops);

  /// With sync commits, every AppendTransaction ends with fdatasync, making
  /// commits power-failure durable (default: flush to the page cache only —
  /// process-crash durable, much faster).
  void SetSyncCommits(bool sync) noexcept { sync_commits_ = sync; }
  [[nodiscard]] bool sync_commits() const noexcept { return sync_commits_; }

  /// Replaces the log with `base` framed as one committed transaction with
  /// txn id 0, atomically: written to "<path>.tmp", fsync'd, renamed over
  /// the log, and the directory fsync'd, whatever SetSyncCommits says (a
  /// rename whose data is not on disk can leave an empty log after a power
  /// failure). Appends then continue on the new file. On an error before
  /// the rename the old log stays in place and in use.
  Status Rewrite(const std::vector<WalRecord>& base);

  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return size_; }
  /// Size of the base the log starts with; 0 for a log never rewritten.
  [[nodiscard]] std::uint64_t base_bytes() const noexcept {
    return base_bytes_;
  }

 private:
  WriteAheadLog(std::FILE* file, std::filesystem::path path,
                std::uint64_t size, std::uint64_t base_bytes)
      : file_(file),
        path_(std::move(path)),
        size_(size),
        base_bytes_(base_bytes) {}
  void Close() noexcept;
  /// Ok unless the log is closed or an append failed.
  Status CheckWritable() const;
  /// Writes one framed transaction: AppendTransaction's body.
  Status Append(const Bytes& data);

  std::FILE* file_ = nullptr;
  std::filesystem::path path_;
  std::uint64_t size_ = 0;
  std::uint64_t base_bytes_ = 0;
  bool sync_commits_ = false;
  /// The first failed append; the log takes no writes after it.
  Status failed_;
};

}  // namespace dpfs::metadb
