// Subfile storage on the server's local file system.
//
// DPFS is deliberately layered on the storage node's local file system (§2
// footnote: "DPFS is built on top of the local file system ... and can take
// advantage of I/O optimizations such as caching and prefetching"). A
// subfile named by its file's id, "/3f9c...e1" (FileMeta::subfile), maps to
// <root>/3f9c...e1; brick slots are addressed by (offset, length)
// fragments. Unwritten slots are holes: reads past EOF return zeroes,
// matching sparse local files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
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

  /// Writes every fragment at its offset, creating the subfile (and parent
  /// directories) as needed. `sync` fsyncs before returning.
  Status WriteFragments(const std::string& subfile,
                        const std::vector<net::WriteFragment>& fragments,
                        bool sync);

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

  std::filesystem::path root_;
  FdCache fd_cache_;
};

}  // namespace dpfs::server
