#include "server/subfile_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>

#include "common/metrics.h"
#include "common/strings.h"

namespace dpfs::server {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// bytes_read counts bytes returned to clients (zero-filled holes included);
// bytes_written counts payload bytes put to disk; missing_reads counts the
// reads of a subfile that does not exist, served as zeroes.
struct StoreMetrics {
  metrics::Counter& reads = metrics::GetCounter("subfile_store.reads");
  metrics::Counter& missing_reads =
      metrics::GetCounter("subfile_store.missing_reads");
  metrics::Counter& writes = metrics::GetCounter("subfile_store.writes");
  metrics::Counter& bytes_read =
      metrics::GetCounter("subfile_store.bytes_read");
  metrics::Counter& bytes_written =
      metrics::GetCounter("subfile_store.bytes_written");
  metrics::Counter& fsyncs = metrics::GetCounter("subfile_store.fsyncs");
};
StoreMetrics& Metrics() {
  static StoreMetrics m;
  return m;
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
    std::uint64_t read_so_far = 0;
    while (read_so_far < fragment.length) {
      const ssize_t n = ::pread(
          fd.value()->get(), out.data() + cursor + read_so_far,
          fragment.length - read_so_far,
          static_cast<off_t>(fragment.offset + read_so_far));
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoErrnoError("pread subfile", path.string());
      }
      if (n == 0) break;  // EOF: the rest is a sparse hole
      read_so_far += static_cast<std::uint64_t>(n);
    }
    // Zero only what the file did not cover: the rest of `out` was read.
    const MutableByteSpan hole = out.subspan(cursor + read_so_far,
                                             fragment.length - read_so_far);
    std::fill(hole.begin(), hole.end(), std::uint8_t{0});
    cursor += fragment.length;
  }
  Metrics().bytes_read.Add(total);
  return Status::Ok();
}

Status SubfileStore::WriteFragments(
    const std::string& subfile,
    const std::vector<net::WriteFragment>& fragments, bool sync) {
  DPFS_ASSIGN_OR_RETURN(const std::filesystem::path path,
                        ResolvePath(subfile));
  DPFS_ASSIGN_OR_RETURN(const SharedFdPtr fd,
                        fd_cache_.Acquire(path.string(), true));
  Metrics().writes.Add();

  for (const net::WriteFragment& fragment : fragments) {
    std::uint64_t written = 0;
    while (written < fragment.data.size()) {
      const ssize_t n = ::pwrite(
          fd->get(), fragment.data.data() + written,
          fragment.data.size() - written,
          static_cast<off_t>(fragment.offset + written));
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoErrnoError("pwrite subfile", path.string());
      }
      written += static_cast<std::uint64_t>(n);
    }
    Metrics().bytes_written.Add(fragment.data.size());
  }
  if (sync) {
    Metrics().fsyncs.Add();
    if (::fsync(fd->get()) != 0) {
      return IoErrnoError("fsync subfile", path.string());
    }
  }
  return Status::Ok();
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
