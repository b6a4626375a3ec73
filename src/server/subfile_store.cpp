#include "server/subfile_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>

#include "common/metrics.h"
#include "common/strings.h"

namespace dpfs::server {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// bytes_read counts bytes returned to clients (zero-filled holes included);
// bytes_written counts payload bytes put to disk, not the gaps a sieved
// span rewrites, which sieved_gap_bytes counts; sieved_spans counts the
// spans written by one read-modify-write; missing_reads counts the reads
// of a subfile that does not exist, served as zeroes.
struct StoreMetrics {
  metrics::Counter& reads = metrics::GetCounter("subfile_store.reads");
  metrics::Counter& missing_reads =
      metrics::GetCounter("subfile_store.missing_reads");
  metrics::Counter& writes = metrics::GetCounter("subfile_store.writes");
  metrics::Counter& bytes_read =
      metrics::GetCounter("subfile_store.bytes_read");
  metrics::Counter& bytes_written =
      metrics::GetCounter("subfile_store.bytes_written");
  metrics::Counter& sieved_spans =
      metrics::GetCounter("subfile_store.sieved_spans");
  metrics::Counter& sieved_gap_bytes =
      metrics::GetCounter("subfile_store.sieved_gap_bytes");
  metrics::Counter& fsyncs = metrics::GetCounter("subfile_store.fsyncs");
};
StoreMetrics& Metrics() {
  static StoreMetrics m;
  return m;
}

/// preads into `out` from `offset` until it is full or the file ends;
/// returns how many bytes the file held.
Result<std::uint64_t> PreadUntilEof(int fd, MutableByteSpan out,
                                    std::uint64_t offset,
                                    const std::filesystem::path& path) {
  std::uint64_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrnoError("pread subfile", path.string());
    }
    if (n == 0) break;  // EOF: the rest is a sparse hole
    done += static_cast<std::uint64_t>(n);
  }
  return done;
}

Status PwriteAll(int fd, ByteSpan data, std::uint64_t offset,
                 const std::filesystem::path& path) {
  std::uint64_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrnoError("pwrite subfile", path.string());
    }
    done += static_cast<std::uint64_t>(n);
  }
  return Status::Ok();
}

/// Fragments [first, last) of a write request, written as one pwrite of
/// `length` bytes at `offset`; `gap_bytes` of them lie between fragments.
struct Span {
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t gap_bytes = 0;
};

/// The span that starts at fragments[first]. Offsets are compared relative
/// to the span's start, so no sum can wrap; a fragment that overlaps or
/// goes back starts the next span, which keeps request order. An empty
/// fragment is a span of its own and writes nothing, so it never moves EOF.
Span NextSpan(std::span<const net::WriteFragment> fragments,
              std::size_t first) {
  Span span{first, first + 1, fragments[first].offset,
            fragments[first].data.size(), 0};
  if (span.length == 0) return span;
  for (; span.last < fragments.size(); ++span.last) {
    const net::WriteFragment& next = fragments[span.last];
    if (next.data.empty() || next.offset < span.offset) break;
    const std::uint64_t start = next.offset - span.offset;
    if (start < span.length ||
        start - span.length >= SubfileStore::kSieveGapLimit ||
        start > SubfileStore::kMaxSpanBytes ||
        next.data.size() > SubfileStore::kMaxSpanBytes - start) {
      break;
    }
    span.gap_bytes += start - span.length;
    span.length = start + next.data.size();
  }
  return span;
}

/// Writes one span. A span of one fragment goes down from the request's
/// own bytes; a longer one is assembled in `scratch`, over the file's
/// current bytes when it has gaps.
Status WriteSpan(int fd, std::span<const net::WriteFragment> fragments,
                 const Span& span, Bytes& scratch,
                 const std::filesystem::path& path) {
  ByteSpan data = fragments[span.first].data;
  if (span.last - span.first > 1) {
    if (scratch.size() < span.length) scratch.resize(span.length);
    const MutableByteSpan buffer = MutableByteSpan(scratch).first(span.length);
    if (span.gap_bytes > 0) {
      DPFS_ASSIGN_OR_RETURN(const std::uint64_t held,
                            PreadUntilEof(fd, buffer, span.offset, path));
      // Gaps past EOF were holes, which read as zeroes.
      std::fill(buffer.begin() + static_cast<std::ptrdiff_t>(held),
                buffer.end(), std::uint8_t{0});
      Metrics().sieved_spans.Add();
      Metrics().sieved_gap_bytes.Add(span.gap_bytes);
    }
    for (std::size_t i = span.first; i < span.last; ++i) {
      const net::WriteFragment& fragment = fragments[i];
      std::memcpy(buffer.data() + (fragment.offset - span.offset),
                  fragment.data.data(), fragment.data.size());
    }
    data = buffer;
  }
  DPFS_RETURN_IF_ERROR(PwriteAll(fd, data, span.offset, path));
  Metrics().bytes_written.Add(span.length - span.gap_bytes);
  return Status::Ok();
}
}  // namespace

Result<std::filesystem::path> SubfileStore::ResolvePath(
    const std::string& subfile) const {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(subfile));
  if (normalized == "/") {
    return InvalidArgumentError("subfile name resolves to the store root");
  }
  // normalized starts with '/'; strip it and join under root.
  return root_ / normalized.substr(1);
}

Status SubfileStore::ReadFragments(
    const std::string& subfile,
    const std::vector<net::ReadFragment>& fragments, MutableByteSpan out) {
  DPFS_ASSIGN_OR_RETURN(const std::filesystem::path path,
                        ResolvePath(subfile));
  std::uint64_t total = 0;
  for (const net::ReadFragment& fragment : fragments) total += fragment.length;
  if (total != out.size()) {
    return InvalidArgumentError("read buffer holds " +
                                std::to_string(out.size()) + " bytes for " +
                                std::to_string(total) + " requested");
  }
  Metrics().reads.Add();

  const Result<SharedFdPtr> fd = fd_cache_.Acquire(path.string(), false);
  if (!fd.ok()) {
    if (fd.status().code() == StatusCode::kNotFound) {
      // A never-written subfile is all holes; zeroes are correct.
      Metrics().missing_reads.Add();
      Metrics().bytes_read.Add(total);
      std::fill(out.begin(), out.end(), std::uint8_t{0});
      return Status::Ok();
    }
    return fd.status();
  }

  std::uint64_t cursor = 0;
  for (const net::ReadFragment& fragment : fragments) {
    const MutableByteSpan slot = out.subspan(cursor, fragment.length);
    DPFS_ASSIGN_OR_RETURN(
        const std::uint64_t held,
        PreadUntilEof(fd.value()->get(), slot, fragment.offset, path));
    // Zero only what the file did not cover: the rest of `out` was read.
    std::fill(slot.begin() + static_cast<std::ptrdiff_t>(held), slot.end(),
              std::uint8_t{0});
    cursor += fragment.length;
  }
  Metrics().bytes_read.Add(total);
  return Status::Ok();
}

Status SubfileStore::WriteFragments(
    const std::string& subfile, std::span<const net::WriteFragment> fragments,
    bool sync, Bytes& scratch) {
  DPFS_ASSIGN_OR_RETURN(const std::filesystem::path path,
                        ResolvePath(subfile));
  DPFS_ASSIGN_OR_RETURN(const SharedFdPtr fd,
                        fd_cache_.Acquire(path.string(), true));
  Metrics().writes.Add();
  {
    // From a span's read to the last write, no other write may land: the
    // span would put a gap's old bytes back over it.
    MutexLock lock(WriteLock(path));
    for (std::size_t first = 0; first < fragments.size();) {
      const Span span = NextSpan(fragments, first);
      DPFS_RETURN_IF_ERROR(
          WriteSpan(fd->get(), fragments, span, scratch, path));
      first = span.last;
    }
  }
  if (sync) {
    Metrics().fsyncs.Add();
    if (::fsync(fd->get()) != 0) {
      return IoErrnoError("fsync subfile", path.string());
    }
  }
  return Status::Ok();
}

Mutex& SubfileStore::WriteLock(const std::filesystem::path& path) {
  return write_locks_[std::hash<std::string>{}(path.native()) %
                      write_locks_.size()];
}

Status SubfileStore::Delete(const std::string& subfile) {
  DPFS_ASSIGN_OR_RETURN(const std::filesystem::path path,
                        ResolvePath(subfile));
  fd_cache_.Invalidate(path.string());
  std::error_code ec;
  const bool removed = std::filesystem::remove(path, ec);
  if (ec) return IoError("delete subfile: " + ec.message());
  if (!removed) {
    return NotFoundError("subfile '" + subfile + "' does not exist");
  }
  return Status::Ok();
}

Result<std::vector<net::SubfileInfo>> SubfileStore::ListSubfiles() const {
  std::vector<net::SubfileInfo> out;
  std::error_code ec;
  if (!std::filesystem::exists(root_, ec)) return out;
  for (auto it = std::filesystem::recursive_directory_iterator(root_, ec);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file(ec)) continue;
    net::SubfileInfo info;
    const std::filesystem::path relative =
        std::filesystem::relative(it->path(), root_, ec);
    if (ec) continue;
    info.name = "/" + relative.generic_string();
    info.size = it->file_size(ec);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const net::SubfileInfo& a, const net::SubfileInfo& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace dpfs::server
