#include "metadb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"

namespace dpfs::metadb {

Bytes WalRecord::Encode() const {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(kind));
  writer.WriteU64(txn_id);
  switch (kind) {
    case WalRecordKind::kBegin:
    case WalRecordKind::kCommit:
      break;
    case WalRecordKind::kCreateTable:
      writer.WriteString(table);
      schema.Serialize(writer);
      break;
    case WalRecordKind::kDropTable:
      writer.WriteString(table);
      break;
    case WalRecordKind::kInsert:
    case WalRecordKind::kUpdate:
      writer.WriteString(table);
      writer.WriteU64(row_id);
      writer.WriteU32(static_cast<std::uint32_t>(row.size()));
      for (const Value& v : row) v.Serialize(writer);
      break;
    case WalRecordKind::kDelete:
      writer.WriteString(table);
      writer.WriteU64(row_id);
      break;
  }
  return std::move(writer).TakeBuffer();
}

Result<WalRecord> WalRecord::Decode(ByteSpan payload) {
  BinaryReader reader(payload);
  WalRecord record;
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t kind_tag, reader.ReadU8());
  record.kind = static_cast<WalRecordKind>(kind_tag);
  DPFS_ASSIGN_OR_RETURN(record.txn_id, reader.ReadU64());
  switch (record.kind) {
    case WalRecordKind::kBegin:
    case WalRecordKind::kCommit:
      break;
    case WalRecordKind::kCreateTable: {
      DPFS_ASSIGN_OR_RETURN(record.table, reader.ReadString());
      DPFS_ASSIGN_OR_RETURN(record.schema, Schema::Deserialize(reader));
      break;
    }
    case WalRecordKind::kDropTable: {
      DPFS_ASSIGN_OR_RETURN(record.table, reader.ReadString());
      break;
    }
    case WalRecordKind::kInsert:
    case WalRecordKind::kUpdate: {
      DPFS_ASSIGN_OR_RETURN(record.table, reader.ReadString());
      DPFS_ASSIGN_OR_RETURN(record.row_id, reader.ReadU64());
      DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
      record.row.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        DPFS_ASSIGN_OR_RETURN(Value v, Value::Deserialize(reader));
        record.row.push_back(std::move(v));
      }
      break;
    }
    case WalRecordKind::kDelete: {
      DPFS_ASSIGN_OR_RETURN(record.table, reader.ReadString());
      DPFS_ASSIGN_OR_RETURN(record.row_id, reader.ReadU64());
      break;
    }
    default:
      return ProtocolError("wal: bad record kind " + std::to_string(kind_tag));
  }
  if (!reader.AtEnd()) return ProtocolError("wal: record has trailing bytes");
  return record;
}

namespace {

/// The base's txn id. Real transactions start at 1.
constexpr std::uint64_t kBaseTxnId = 0;
/// A frame's header: [u32 payload_len][u32 crc32c].
constexpr std::uint64_t kHeaderBytes = 8;
/// A framed BEGIN, the record every log starts with.
constexpr std::uint64_t kBeginFrameBytes = kHeaderBytes + 9;

std::filesystem::path TmpPath(const std::filesystem::path& log) {
  return log.string() + ".tmp";
}

void AppendFramed(BinaryWriter& frame, const WalRecord& record) {
  const Bytes payload = record.Encode();
  frame.WriteU32(static_cast<std::uint32_t>(payload.size()));
  frame.WriteU32(Crc32c(payload));
  frame.WriteRaw(payload);
}

/// BEGIN, `ops` stamped with `txn_id`, COMMIT: the bytes one commit appends
/// and, with txn id 0, the whole file a rewrite writes.
Bytes FrameTransaction(std::uint64_t txn_id,
                       const std::vector<WalRecord>& ops) {
  BinaryWriter frame;
  WalRecord marker;
  marker.kind = WalRecordKind::kBegin;
  marker.txn_id = txn_id;
  AppendFramed(frame, marker);
  for (const WalRecord& op : ops) {
    WalRecord stamped = op;  // ops carry the owning transaction's id
    stamped.txn_id = txn_id;
    AppendFramed(frame, stamped);
  }
  marker.kind = WalRecordKind::kCommit;
  AppendFramed(frame, marker);
  return std::move(frame).TakeBuffer();
}

/// Reads the record at the file's position into `record`, and its size
/// with the header into `framed_bytes`. False at the end of the file, for a
/// record the file ends inside, and for one whose length, checksum or
/// decoding fails.
bool ReadRecord(std::FILE* file, WalRecord* record,
                std::uint64_t* framed_bytes) {
  std::uint8_t header[kHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
    return false;
  }
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, header, 4);
  std::memcpy(&crc, header + 4, 4);
  if (len > (64u << 20)) return false;  // corrupt length
  Bytes payload(len);
  if (len > 0 && std::fread(payload.data(), 1, len, file) != len) {
    return false;
  }
  if (Crc32c(payload) != crc) return false;
  Result<WalRecord> decoded = WalRecord::Decode(payload);
  if (!decoded.ok()) return false;
  *record = std::move(decoded).value();
  *framed_bytes = kHeaderBytes + len;
  return true;
}

/// What Open finds in a log file.
struct LogContents {
  std::vector<WalRecord> committed;  // op records of committed txns, in order
  std::uint64_t file_bytes = 0;
  std::uint64_t valid_bytes = 0;     // through the last intact COMMIT
  std::uint64_t base_bytes = 0;      // the leading base; 0 when none
};

/// Reads the whole file: the base whole, then the committed prefix of the
/// appends after it.
Result<LogContents> ReadLog(const std::filesystem::path& path) {
  LogContents log;
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (file == nullptr) return log;  // no log yet
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{file};
  std::error_code ec;
  log.file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return IoError("wal size '" + path.string() + "': " + ec.message());
  const auto data_loss = [&path](std::uint64_t offset, const char* what) {
    return DataLossError("wal '" + path.string() + "': " + what +
                         " at offset " + std::to_string(offset) +
                         "; the log was left as it is");
  };

  std::vector<WalRecord> pending;  // ops of the in-flight txn
  bool in_txn = false;
  bool in_base = false;
  std::uint64_t offset = 0;
  while (true) {
    WalRecord record;
    std::uint64_t framed = 0;
    const bool intact = ReadRecord(file, &record, &framed);
    if (offset == 0 && log.file_bytes >= kBeginFrameBytes &&
        (!intact || record.kind != WalRecordKind::kBegin)) {
      // A torn first append is shorter than its BEGIN; a longer log that
      // does not start with one may have lost its base's mark.
      return data_loss(0, "the first record is not an intact BEGIN");
    }
    if (!intact) {
      if (in_base) return data_loss(offset, "the base is damaged or cut short");
      break;  // the tail: discarded by Open
    }
    switch (record.kind) {
      case WalRecordKind::kBegin:
        if (in_base) return data_loss(offset, "the base has no COMMIT");
        in_base = offset == 0 && record.txn_id == kBaseTxnId;
        pending.clear();
        in_txn = true;
        break;
      case WalRecordKind::kCommit:
        if (in_txn) {
          for (WalRecord& op : pending) log.committed.push_back(std::move(op));
          pending.clear();
          in_txn = false;
          // Everything up to and including this record is durable.
          log.valid_bytes = offset + framed;
          if (in_base) log.base_bytes = log.valid_bytes;
          in_base = false;
        }
        break;
      default:
        if (in_txn) pending.push_back(std::move(record));
        break;
    }
    offset += framed;
  }
  return log;
}

Status SyncDirectory(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IoErrnoError("open wal directory", dir.string());
  const Status synced = ::fsync(fd) == 0
                            ? Status::Ok()
                            : IoErrnoError("fsync wal directory", dir.string());
  ::close(fd);
  return synced;
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(
    const std::filesystem::path& path,
    const std::function<Status(const WalRecord&)>& apply,
    std::uint64_t* max_txn_id) {
  DPFS_ASSIGN_OR_RETURN(const LogContents log, ReadLog(path));
  for (const WalRecord& record : log.committed) {
    DPFS_RETURN_IF_ERROR(
        apply(record).WithContext("wal replay of table '" + record.table + "'"));
    if (max_txn_id != nullptr && record.txn_id > *max_txn_id) {
      *max_txn_id = record.txn_id;
    }
  }
  // A rewrite that crashed before its rename; the log is whole without it.
  std::error_code ec;
  std::filesystem::remove(TmpPath(path), ec);
  if (ec) return IoError("remove stale wal rewrite: " + ec.message());
  // Truncate the torn tail so new appends start at a clean boundary.
  if (log.file_bytes > log.valid_bytes) {
    const std::uint64_t dropped = log.file_bytes - log.valid_bytes;
    DPFS_LOG_WARN << "wal '" << path.string() << "': discarding " << dropped
                  << " bytes after the last intact COMMIT at offset "
                  << log.valid_bytes;
    metrics::GetCounter("metadb.wal_discarded_bytes").Add(dropped);
    std::filesystem::resize_file(path, log.valid_bytes, ec);
    if (ec) return IoError("wal truncate: " + ec.message());
  }
  std::FILE* file = std::fopen(path.string().c_str(), "ab");
  if (file == nullptr) return IoErrnoError("open wal", path.string());
  return WriteAheadLog(file, path, log.valid_bytes, log.base_bytes);
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      size_(other.size_),
      base_bytes_(other.base_bytes_),
      sync_commits_(other.sync_commits_),
      failed_(std::move(other.failed_)) {
  other.file_ = nullptr;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    path_ = std::move(other.path_);
    size_ = other.size_;
    base_bytes_ = other.base_bytes_;
    sync_commits_ = other.sync_commits_;
    failed_ = std::move(other.failed_);
    other.file_ = nullptr;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() { Close(); }

void WriteAheadLog::Close() noexcept {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WriteAheadLog::CheckWritable() const {
  if (file_ == nullptr) return InternalError("wal: closed");
  return failed_.WithContext(
      "wal refuses writes until the database is reopened, after");
}

Status WriteAheadLog::AppendTransaction(std::uint64_t txn_id,
                                        const std::vector<WalRecord>& ops) {
  DPFS_RETURN_IF_ERROR(CheckWritable());
  const Status appended = Append(FrameTransaction(txn_id, ops));
  if (!appended.ok()) failed_ = appended;
  return appended;
}

Status WriteAheadLog::Append(const Bytes& data) {
  if (auto fp = failpoint::Check("wal.append")) {
    switch (fp->action) {
      case failpoint::Action::kReturnError:
        return fp->status;
      case failpoint::Action::kTornWrite:
      case failpoint::Action::kShortIo: {
        // Persist only the first `arg` bytes of the transaction's frame —
        // the on-disk image a crash mid-append leaves behind, after which
        // the log refuses writes, exactly as after a real torn write.
        const std::size_t torn =
            std::min<std::size_t>(static_cast<std::size_t>(fp->arg),
                                  data.size());
        if (torn > 0 &&
            std::fwrite(data.data(), 1, torn, file_) != torn) {
          return IoErrnoError("wal torn append", path_.string());
        }
        (void)std::fflush(file_);
        size_ += torn;
        return IoError("wal append torn after " + std::to_string(torn) +
                       " bytes (" + fp->status.message() + ")");
      }
      default:
        break;
    }
  }
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return IoErrnoError("wal append", path_.string());
  }
  if (std::fflush(file_) != 0) {
    return IoErrnoError("wal flush", path_.string());
  }
  // Crash-before-sync: bytes reached the page cache, durability did not.
  DPFS_FAILPOINT_RETURN("wal.sync");
  if (sync_commits_ && ::fdatasync(fileno(file_)) != 0) {
    return IoErrnoError("wal fdatasync", path_.string());
  }
  size_ += data.size();
  return Status::Ok();
}

Status WriteAheadLog::Rewrite(const std::vector<WalRecord>& base) {
  DPFS_RETURN_IF_ERROR(CheckWritable());
  const Bytes data = FrameTransaction(kBaseTxnId, base);
  const std::filesystem::path tmp = TmpPath(path_);
  std::FILE* out = std::fopen(tmp.string().c_str(), "wb");
  if (out == nullptr) return IoErrnoError("open wal rewrite", tmp.string());
  std::error_code ec;
  if (std::fwrite(data.data(), 1, data.size(), out) != data.size() ||
      std::fflush(out) != 0 || ::fsync(fileno(out)) != 0) {
    const Status failed = IoErrnoError("write wal rewrite", tmp.string());
    std::fclose(out);
    std::filesystem::remove(tmp, ec);
    return failed;
  }
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    std::fclose(out);
    std::filesystem::remove(tmp, ec);
    return IoError("rename wal rewrite: " + ec.message());
  }
  // The renamed file is the log now: appends continue on the handle that
  // wrote it, which sits at its end.
  Close();
  file_ = out;
  size_ = data.size();
  base_bytes_ = data.size();
  const std::filesystem::path dir = path_.parent_path();
  return SyncDirectory(dir.empty() ? std::filesystem::path(".") : dir);
}

}  // namespace dpfs::metadb
