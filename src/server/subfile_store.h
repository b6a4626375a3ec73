// Subfile storage on the server's local file system.
//
// DPFS is deliberately layered on the storage node's local file system (§2
// footnote: "DPFS is built on top of the local file system ... and can take
// advantage of I/O optimizations such as caching and prefetching"). A
// subfile named by its file's id, "/3f9c...e1" (FileMeta::subfile), maps to
// <root>/3f9c...e1; brick slots are addressed by (offset, length)
// fragments. Unwritten slots are holes: reads past EOF return zeroes,
// matching sparse local files.
//
// Writes go down in spans (data sieving, as ROMIO does for noncontiguous
// access): nearby fragments of one request become one pwrite, their gaps
// rewritten with the bytes they already hold. The server is the only
// writer of its subfiles, so a per-subfile lock is all the sieve needs.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "net/messages.h"
#include "server/fd_cache.h"

namespace dpfs::server {

class SubfileStore {
 public:
  explicit SubfileStore(std::filesystem::path root) : root_(std::move(root)) {}

  /// Reads every fragment into `out`, back to back in order; `out` must
  /// hold exactly their total. Bytes past EOF are zero: only those are
  /// zeroed, so `out` may come in holding anything.
  Status ReadFragments(const std::string& subfile,
                       const std::vector<net::ReadFragment>& fragments,
                       MutableByteSpan out);

  /// A fragment joins the span before it if it starts at or after that
  /// span's end and less than kSieveGapLimit past it, and the span stays
  /// within kMaxSpanBytes.
  static constexpr std::uint64_t kSieveGapLimit = 4096;  // one page
  static constexpr std::uint64_t kMaxSpanBytes = 1 << 20;

  /// Writes the fragments in request order, creating the subfile (and
  /// parent directories) as needed, as spans of nearby fragments: one
  /// pwrite each. A span whose fragments leave gaps is first read into
  /// `scratch` (the caller's buffer; it only grows, to at most
  /// kMaxSpanBytes), so the gaps keep the bytes they hold; past EOF they
  /// become zeroes. The whole write holds the subfile's lock, so no other
  /// write lands between a span's read and its write. `sync` fsyncs after
  /// the lock is released.
  Status WriteFragments(const std::string& subfile,
                        std::span<const net::WriteFragment> fragments,
                        bool sync, Bytes& scratch);

  /// kNotFound if the subfile does not exist.
  Status Delete(const std::string& subfile);

  [[nodiscard]] const std::filesystem::path& root() const noexcept {
    return root_;
  }

  /// All subfiles under the root with their sizes, names normalized to
  /// DPFS form ("/dir/file"), sorted — fsck's ground truth.
  Result<std::vector<net::SubfileInfo>> ListSubfiles() const;

 private:
  /// Maps a subfile name to a local path, rejecting escapes from the root.
  Result<std::filesystem::path> ResolvePath(const std::string& subfile) const;

  /// The write lock of the subfile at `path`, chosen by the path rather
  /// than the fd: the fd cache may close and reopen a file mid-write.
  /// Reads, Delete and ListSubfiles take none, since a sieved span rewrites
  /// its gaps with the values they already hold.
  Mutex& WriteLock(const std::filesystem::path& path);

  std::filesystem::path root_;
  FdCache fd_cache_;
  std::array<Mutex, 64> write_locks_;
};

}  // namespace dpfs::server
