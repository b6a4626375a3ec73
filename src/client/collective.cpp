#include "client/collective.h"

#include "common/metrics.h"

namespace dpfs::client {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
struct CollectiveMetrics {
  metrics::Counter& transfers = metrics::GetCounter("collective.transfers");
  metrics::Counter& requests = metrics::GetCounter("collective.requests");
  metrics::Counter& combined_requests =
      metrics::GetCounter("collective.combined_requests");
  metrics::Counter& retries = metrics::GetCounter("collective.retries");
  metrics::Counter& peer_aborts =
      metrics::GetCounter("collective.peer_aborts");
};
CollectiveMetrics& Metrics() {
  static CollectiveMetrics m;
  return m;
}

Status CheckRanks(std::uint32_t num_ranks) {
  if (num_ranks == 0) {
    return InvalidArgumentError("collective file needs at least one rank");
  }
  return Status::Ok();
}
}  // namespace

CollectiveFile::CollectiveFile(std::shared_ptr<FileSystem> fs,
                               std::vector<FileHandle> handles)
    : fs_(std::move(fs)),
      handles_(std::move(handles)),
      barrier_(static_cast<std::ptrdiff_t>(handles_.size())),
      phase_failed_(handles_.size(), 0),
      views_(handles_.size()) {}

Result<std::unique_ptr<CollectiveFile>> CollectiveFile::Open(
    std::shared_ptr<FileSystem> fs, const std::string& path,
    std::uint32_t num_ranks) {
  DPFS_RETURN_IF_ERROR(CheckRanks(num_ranks));
  // One lookup: every rank gets a copy of the same record, so no rank can
  // see another client's rename or remove that a peer did not.
  DPFS_ASSIGN_OR_RETURN(const FileHandle opened, fs->Open(path));
  return ForRanks(std::move(fs), opened, num_ranks);
}

Result<std::unique_ptr<CollectiveFile>> CollectiveFile::Create(
    std::shared_ptr<FileSystem> fs, const std::string& path,
    const CreateOptions& options, std::uint32_t num_ranks) {
  DPFS_RETURN_IF_ERROR(CheckRanks(num_ranks));
  DPFS_ASSIGN_OR_RETURN(const FileHandle created, fs->Create(path, options));
  return ForRanks(std::move(fs), created, num_ranks);
}

std::unique_ptr<CollectiveFile> CollectiveFile::ForRanks(
    std::shared_ptr<FileSystem> fs, const FileHandle& handle,
    std::uint32_t num_ranks) {
  std::vector<FileHandle> handles(num_ranks, handle);
  for (std::uint32_t rank = 0; rank < num_ranks; ++rank) {
    handles[rank].client_id = rank;
  }
  return std::unique_ptr<CollectiveFile>(
      new CollectiveFile(std::move(fs), std::move(handles)));
}

Status CollectiveFile::SetView(std::uint32_t rank,
                               const layout::Region& region) {
  if (rank >= handles_.size()) {
    return OutOfRangeError("rank " + std::to_string(rank) + " out of range");
  }
  const layout::BrickMap& map = handles_[rank].map;
  if (!map.has_array_shape()) {
    return InvalidArgumentError(
        "collective views require an array-shaped file");
  }
  DPFS_RETURN_IF_ERROR(layout::ValidateRegion(map.array_shape(), region));
  MutexLock lock(mu_);
  views_[rank] = region;
  return Status::Ok();
}

Status CollectiveFile::SetHpfViews(const layout::HpfPattern& pattern,
                                   const layout::ProcessGrid& grid) {
  if (grid.num_processes() != handles_.size()) {
    return InvalidArgumentError(
        "grid process count does not match collective rank count");
  }
  const layout::Shape& array = handles_.front().map.array_shape();
  for (std::uint32_t rank = 0; rank < handles_.size(); ++rank) {
    DPFS_ASSIGN_OR_RETURN(
        const layout::Region chunk,
        layout::ChunkForProcess(array, pattern, grid, rank));
    DPFS_RETURN_IF_ERROR(SetView(rank, chunk));
  }
  return Status::Ok();
}

std::optional<layout::Region> CollectiveFile::view(std::uint32_t rank) const {
  MutexLock lock(mu_);
  return rank < views_.size() ? views_[rank] : std::nullopt;
}

IoReport CollectiveFile::report() const {
  MutexLock lock(mu_);
  return total_report_;
}

Status CollectiveFile::Transfer(std::uint32_t rank, ByteSpan write_data,
                                MutableByteSpan read_buffer,
                                const IoOptions& options) {
  if (rank >= handles_.size()) {
    return OutOfRangeError("rank " + std::to_string(rank) + " out of range");
  }
  // Reset my flag from any previous phase; nobody reads it until after the
  // first barrier below.
  phase_failed_[rank] = 0;

  std::optional<layout::Region> region;
  {
    MutexLock lock(mu_);
    region = views_[rank];
  }
  Status my_status =
      region.has_value()
          ? Status::Ok()
          : InvalidArgumentError("rank " + std::to_string(rank) +
                                 " has no view set");
  if (my_status.ok()) {
    IoReport report;
    my_status = write_data.data() != nullptr
                    ? fs_->WriteRegion(handles_[rank], *region, write_data,
                                       options, &report)
                    : fs_->ReadRegion(handles_[rank], *region, read_buffer,
                                      options, &report);
    Metrics().transfers.Add();
    Metrics().requests.Add(report.requests);
    Metrics().combined_requests.Add(report.combined_requests);
    Metrics().retries.Add(report.retries);
    MutexLock lock(mu_);
    total_report_ += report;
  }
  if (!my_status.ok()) phase_failed_[rank] = 1;

  // Phase close: all flags are written before anyone reads them.
  barrier_.arrive_and_wait();
  std::size_t phase_total = 0;
  for (const std::uint8_t failed : phase_failed_) phase_total += failed;
  // Read-side fence: no rank may start the next phase (and reset its flag)
  // until everyone has scanned this phase's flags.
  barrier_.arrive_and_wait();

  if (!my_status.ok()) return my_status;
  if (phase_total > 0) {
    Metrics().peer_aborts.Add();
    return AbortedError("collective peer failed (" +
                        std::to_string(phase_total) + " rank(s))");
  }
  return Status::Ok();
}

Status CollectiveFile::WriteAll(std::uint32_t rank, ByteSpan data,
                                const IoOptions& options) {
  return Transfer(rank, data, {}, options);
}

Status CollectiveFile::ReadAll(std::uint32_t rank, MutableByteSpan out,
                               const IoOptions& options) {
  return Transfer(rank, {}, out, options);
}

}  // namespace dpfs::client
