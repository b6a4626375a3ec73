// Collective I/O on DPFS — the MPI-IO-flavoured interface the paper names
// as future work (§10: "use DPFS as a low level system to service a high
// level interface such as MPI-IO").
//
// A CollectiveFile is shared by `num_ranks` cooperating threads. Each rank
// declares a *view* (its region of the global array, à la
// MPI_File_set_view) and then calls WriteAll/ReadAll collectively: the call
// performs the rank's transfer with the rank's own request schedule
// (client_id = rank, so §4.2 rotation staggers the ranks) and blocks until
// every rank has completed the phase — any rank's failure is reported to
// all of them.
#pragma once

#include <barrier>
#include <memory>
#include <optional>
#include <vector>

#include "client/file_system.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dpfs::client {

class CollectiveFile {
 public:
  /// Opens an existing file for `num_ranks` cooperating threads.
  static Result<std::unique_ptr<CollectiveFile>> Open(
      std::shared_ptr<FileSystem> fs, const std::string& path,
      std::uint32_t num_ranks);

  /// Creates the file (the hint structure decides its level) and gives
  /// every rank the created record; a zero `num_ranks` creates nothing.
  static Result<std::unique_ptr<CollectiveFile>> Create(
      std::shared_ptr<FileSystem> fs, const std::string& path,
      const CreateOptions& options, std::uint32_t num_ranks);

  /// Declares rank's view. Must be called (by any thread) before that rank's
  /// first collective transfer. Views may overlap for reads; overlapping
  /// write views make the overlap's final content unspecified (as in
  /// MPI-IO).
  Status SetView(std::uint32_t rank, const layout::Region& region);

  /// Convenience: views from an HPF pattern — rank r gets chunk r.
  Status SetHpfViews(const layout::HpfPattern& pattern,
                     const layout::ProcessGrid& grid);

  /// Collective transfer of rank's whole view. Every rank must call;
  /// returns after all ranks finish, with this rank's own error, or
  /// kAborted("collective peer failed") if only a peer failed.
  Status WriteAll(std::uint32_t rank, ByteSpan data,
                  const IoOptions& options = {});
  Status ReadAll(std::uint32_t rank, MutableByteSpan out,
                 const IoOptions& options = {});

  [[nodiscard]] std::uint32_t num_ranks() const noexcept {
    return static_cast<std::uint32_t>(handles_.size());
  }
  [[nodiscard]] const FileMeta& meta() const noexcept {
    return handles_.front().meta();
  }
  /// The view a rank declared (if any).
  [[nodiscard]] std::optional<layout::Region> view(std::uint32_t rank) const;

  /// Aggregate transfer statistics across all ranks and phases.
  [[nodiscard]] IoReport report() const;

 private:
  CollectiveFile(std::shared_ptr<FileSystem> fs,
                 std::vector<FileHandle> handles);

  /// The collective file whose `num_ranks` ranks each hold a copy of
  /// `handle` with client_id = rank.
  static std::unique_ptr<CollectiveFile> ForRanks(
      std::shared_ptr<FileSystem> fs, const FileHandle& handle,
      std::uint32_t num_ranks);

  Status Transfer(std::uint32_t rank, ByteSpan write_data,
                  MutableByteSpan read_buffer, const IoOptions& options);

  std::shared_ptr<FileSystem> fs_;
  std::vector<FileHandle> handles_;  // one per rank, client_id = rank
  std::barrier<> barrier_;

  // Per-rank failure flag for the current phase. Each rank writes only its
  // own slot before the phase barrier and reads the others only between the
  // two barriers, so the barrier's happens-before edges order all accesses
  // (deliberately not mu_-guarded; the barrier is the synchronization).
  std::vector<std::uint8_t> phase_failed_;

  mutable Mutex mu_;
  std::vector<std::optional<layout::Region>> views_ DPFS_GUARDED_BY(mu_);
  IoReport total_report_ DPFS_GUARDED_BY(mu_);
};

}  // namespace dpfs::client
