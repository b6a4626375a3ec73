#include "client/file_system.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <chrono>
#include <thread>

#include "common/log.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "layout/replication.h"

namespace dpfs::client {

namespace {
// Global-registry instruments, resolved once (docs/OBSERVABILITY.md).
// client.* aggregates every executed plan across FileSystem instances;
// combined_requests counts §4.2 combination actually firing (>1 brick per
// wire request).
struct ClientMetricsT {
  metrics::Counter& requests = metrics::GetCounter("client.requests");
  metrics::Counter& combined_requests =
      metrics::GetCounter("client.combined_requests");
  metrics::Counter& transfer_bytes =
      metrics::GetCounter("client.transfer_bytes");
  metrics::Counter& useful_bytes = metrics::GetCounter("client.useful_bytes");
  metrics::Counter& retries = metrics::GetCounter("client.retries");
  metrics::Counter& busy_retries = metrics::GetCounter("client.busy_retries");
  metrics::Counter& failed_accesses =
      metrics::GetCounter("client.failed_accesses");
  // Replication extension (docs/REPLICATION.md): reads served by a replica
  // rank > 0, and write-side replica requests that failed while the brick
  // stayed durable on another rank.
  metrics::Counter& failover_reads =
      metrics::GetCounter("client.failover_reads");
  metrics::Counter& replica_write_failures =
      metrics::GetCounter("client.replica_write_failures");
  // Subfiles a Remove left on a server after its metadata commit (each
  // (server, rank) delete that failed with anything but not-found); fsck
  // reports and reclaims them as orphans.
  metrics::Counter& orphaned_subfiles =
      metrics::GetCounter("client.orphaned_subfiles");
};
ClientMetricsT& ClientMetrics() {
  static ClientMetricsT m;
  return m;
}
}  // namespace

Result<std::shared_ptr<FileSystem>> FileSystem::Connect(
    std::shared_ptr<metadb::Database> db) {
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<MetadataManager> metadata,
                        MetadataManager::Attach(std::move(db)));
  return std::shared_ptr<FileSystem>(new FileSystem(std::move(metadata)));
}

Result<std::shared_ptr<FileSystem>> FileSystem::ConnectRemote(
    const net::Endpoint& endpoint, RemoteMetadataOptions options) {
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<RemoteMetadataManager> metadata,
                        RemoteMetadataManager::Connect(endpoint, options));
  return std::shared_ptr<FileSystem>(new FileSystem(std::move(metadata)));
}

// ---------------------------------------------------------------------------
// Create / Open / Remove

namespace {

Result<FileMeta> BuildMeta(const std::string& path,
                           const CreateOptions& options) {
  FileMeta meta;
  DPFS_ASSIGN_OR_RETURN(meta.path, NormalizePath(path));
  DPFS_ASSIGN_OR_RETURN(meta.subfile, NewSubfileId());
  meta.owner = options.owner;
  meta.permission = options.permission;
  meta.level = options.level;
  meta.element_size = options.element_size;
  meta.array_shape = options.array_shape;

  switch (options.level) {
    case layout::FileLevel::kLinear:
      meta.brick_bytes = options.brick_bytes;
      meta.size_bytes =
          options.array_shape.empty()
              ? options.total_bytes
              : layout::NumElements(options.array_shape) * options.element_size;
      if (meta.size_bytes == 0) {
        return InvalidArgumentError(
            "linear file needs a size: set total_bytes or array_shape");
      }
      break;
    case layout::FileLevel::kMultidim:
      if (options.array_shape.empty() || options.brick_shape.empty()) {
        return InvalidArgumentError(
            "multidim file needs array_shape and brick_shape hints");
      }
      meta.brick_shape = options.brick_shape;
      meta.size_bytes =
          layout::NumElements(options.array_shape) * options.element_size;
      break;
    case layout::FileLevel::kArray: {
      if (options.array_shape.empty() || !options.pattern.has_value()) {
        return InvalidArgumentError(
            "array file needs array_shape and pattern hints");
      }
      meta.pattern = options.pattern;
      if (!options.chunk_grid.empty()) {
        meta.chunk_grid = options.chunk_grid;
      } else {
        if (options.num_chunks == 0) {
          return InvalidArgumentError(
              "array file needs chunk_grid or num_chunks hints");
        }
        meta.chunk_grid =
            layout::ProcessGrid::Auto(options.num_chunks,
                                      options.pattern->num_block_dims())
                .grid;
      }
      meta.size_bytes =
          layout::NumElements(options.array_shape) * options.element_size;
      break;
    }
  }
  return meta;
}

}  // namespace

Result<FileHandle> FileSystem::Create(const std::string& path,
                                      const CreateOptions& options) {
  DPFS_ASSIGN_OR_RETURN(FileMeta meta, BuildMeta(path, options));
  DPFS_ASSIGN_OR_RETURN(layout::BrickMap map, meta.MakeBrickMap());

  DPFS_ASSIGN_OR_RETURN(std::vector<ServerInfo> servers,
                        metadata_->ListServers());
  if (servers.empty()) {
    return UnavailableError("no I/O servers registered in DPFS_SERVER");
  }
  if (options.suggested_io_nodes > 0 &&
      options.suggested_io_nodes < servers.size()) {
    servers.resize(options.suggested_io_nodes);
  }

  std::vector<std::uint32_t> performance;
  std::vector<std::uint64_t> capacity_bricks;
  std::vector<std::string> names;
  performance.reserve(servers.size());
  for (const ServerInfo& server : servers) {
    performance.push_back(server.performance);
    names.push_back(server.name);
    // How many full brick slots the server's advertised capacity can hold
    // (only consulted by the capacity-aware policy).
    capacity_bricks.push_back(map.brick_bytes() == 0
                                  ? 0
                                  : server.capacity_bytes / map.brick_bytes());
  }
  // Replication (extension, docs/REPLICATION.md): R > 1 stacks R - 1
  // replica ranks on top of the primary. R = 1 keeps the original code
  // path, so unreplicated layouts stay byte-identical to the paper's.
  std::vector<layout::BrickDistribution> ranks;
  if (options.replication > 1) {
    layout::ReplicationSpec spec;
    spec.factor = options.replication;
    spec.domains = options.failure_domains;
    DPFS_ASSIGN_OR_RETURN(
        const layout::ReplicatedDistribution replicated,
        layout::ReplicatedDistribution::Create(options.placement,
                                               map.num_bricks(), performance,
                                               spec, capacity_bricks));
    ranks = replicated.ranks();
  } else {
    DPFS_ASSIGN_OR_RETURN(
        layout::BrickDistribution distribution,
        layout::BrickDistribution::Create(options.placement, map.num_bricks(),
                                          performance, capacity_bricks));
    ranks.push_back(std::move(distribution));
  }
  std::vector<layout::BrickDistribution> replicas(ranks.begin() + 1,
                                                  ranks.end());
  DPFS_RETURN_IF_ERROR(metadata_->CreateFile(meta, names, ranks[0], replicas));

  FileHandle handle;
  handle.record.meta = std::move(meta);
  handle.record.servers = std::move(servers);
  handle.record.distribution = std::move(ranks[0]);
  handle.record.replicas = std::move(replicas);
  handle.map = std::move(map);
  return handle;
}

Result<FileHandle> FileSystem::Open(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(FileRecord record, metadata_->LookupFile(path));
  DPFS_ASSIGN_OR_RETURN(layout::BrickMap map, record.meta.MakeBrickMap());
  FileHandle handle;
  handle.record = std::move(record);
  handle.map = std::move(map);
  return handle;
}

Status FileSystem::Remove(const std::string& path) {
  // Metadata first: once DeleteFile commits, the file is gone, and a
  // subfile left behind below is an orphan for fsck, never a hole in a live
  // file.
  DPFS_ASSIGN_OR_RETURN(const FileRecord record, metadata_->DeleteFile(path));
  for (const ServerInfo& server : record.servers) {
    Result<PooledConnection> conn = pool_.Acquire(server.endpoint);
    // Once a delete fails, the server's remaining ranks are not tried.
    Status failed = conn.status();
    // Every replica rank has its own subfile; a server that never received
    // a brick write for a rank has none, which is fine.
    for (std::uint32_t rank = 0; rank < record.replication(); ++rank) {
      const std::string subfile =
          layout::ReplicaSubfileName(record.meta.subfile, rank);
      if (failed.ok()) {
        const Status deleted = conn.value()->Delete(subfile);
        if (deleted.ok() || deleted.code() == StatusCode::kNotFound) continue;
        conn.value().Poison();
        failed = deleted;
      }
      ClientMetrics().orphaned_subfiles.Add();
      DPFS_LOG_WARN << "remove " << record.meta.path << ": subfile "
                    << subfile << " left on " << server.name << ": "
                    << failed.ToString();
    }
  }
  return Status::Ok();
}

Status FileSystem::RemoveDirectory(const std::string& path, bool recursive) {
  DPFS_ASSIGN_OR_RETURN(const std::string normalized, NormalizePath(path));
  if (recursive) {
    DPFS_ASSIGN_OR_RETURN(const MetadataManager::Listing listing,
                          metadata_->ListDirectory(normalized));
    const std::string prefix = normalized == "/" ? "" : normalized;
    for (const std::string& file : listing.files) {
      DPFS_RETURN_IF_ERROR(Remove(prefix + "/" + file));
    }
    for (const std::string& dir : listing.directories) {
      DPFS_RETURN_IF_ERROR(RemoveDirectory(prefix + "/" + dir, true));
    }
  }
  return metadata_->RemoveDirectory(normalized);
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  return metadata_->RenameFile(from, to);
}

Result<FileSystem::FsckReport> FileSystem::Fsck(bool repair) {
  if (embedded_ == nullptr) {
    return UnimplementedError(
        "fsck reads DPFS_FILE_ATTR directly and needs embedded metadata; "
        "run it on the host that owns the metadata database");
  }
  FsckReport report;
  // Expected subfile names: each file's subfile id, plus
  // "<subfile>#r<rank>" for each replica distribution row
  // (docs/REPLICATION.md).
  metadb::Database& db = embedded_->db();
  std::set<std::string> expected;
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet attr,
      db.Execute("SELECT filename, subfile FROM DPFS_FILE_ATTR"));
  std::map<std::string, std::string> subfiles;  // filename -> subfile id
  for (std::size_t row = 0; row < attr.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(std::string name, attr.GetText(row, "filename"));
    DPFS_ASSIGN_OR_RETURN(std::string subfile, attr.GetText(row, "subfile"));
    expected.insert(subfile);
    subfiles.emplace(std::move(name), std::move(subfile));
  }
  report.files_checked = attr.size();
  DPFS_ASSIGN_OR_RETURN(
      const metadb::ResultSet dist,
      db.Execute("SELECT filename, replica FROM DPFS_FILE_DISTRIBUTION"));
  for (std::size_t row = 0; row < dist.size(); ++row) {
    DPFS_ASSIGN_OR_RETURN(const std::int64_t rank,
                          dist.GetInt(row, "replica"));
    if (rank <= 0) continue;
    DPFS_ASSIGN_OR_RETURN(const std::string name,
                          dist.GetText(row, "filename"));
    expected.insert(layout::ReplicaSubfileName(
        subfiles[name], static_cast<std::uint32_t>(rank)));
  }

  DPFS_ASSIGN_OR_RETURN(const std::vector<ServerInfo> servers,
                        metadata_->ListServers());
  for (const ServerInfo& server : servers) {
    Result<PooledConnection> conn = pool_.Acquire(server.endpoint);
    if (!conn.ok()) {
      report.unreachable_servers.push_back(server.name);
      continue;
    }
    PooledConnection pooled = std::move(conn).value();
    const Result<std::vector<net::SubfileInfo>> listing = pooled->List();
    if (!listing.ok()) {
      pooled.Poison();
      report.unreachable_servers.push_back(server.name);
      continue;
    }
    ++report.servers_checked;
    for (const net::SubfileInfo& info : listing.value()) {
      if (expected.contains(info.name)) continue;
      report.orphans.push_back({server.name, info.name, info.size});
      if (repair) {
        const Status deleted = pooled->Delete(info.name);
        if (deleted.ok()) ++report.repaired;
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Plan execution

ThreadPool& FileSystem::DispatchPool() {
  MutexLock lock(dispatch_mu_);
  if (dispatch_pool_ == nullptr) {
    const unsigned hw = std::thread::hardware_concurrency();
    dispatch_pool_ = std::make_unique<ThreadPool>(std::max(4u, hw / 2));
  }
  return *dispatch_pool_;
}

struct FileSystem::RetryTally {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> busy_retries{0};
  std::atomic<std::uint64_t> backoff_ms{0};
  std::atomic<std::uint64_t> failover_reads{0};
};

Status FileSystem::ExecutePlan(const FileHandle& handle,
                               const layout::ClientPlan& plan_in,
                               const RunsByBrick& runs, ByteSpan write_data,
                               MutableByteSpan read_buffer,
                               const IoOptions& options, IoReport* report) {
  const bool is_write = plan_in.direction == layout::IoDirection::kWrite;
  const std::uint32_t factor = handle.record.replication();

  // Replication (docs/REPLICATION.md): a write plan against a replicated
  // file fans every request out to all ranks before dispatch, so the
  // executor below sees replica requests as ordinary requests. Reads keep
  // the rank-0 plan and fail over per request.
  const bool replicated_write = is_write && factor > 1;
  layout::ClientPlan expanded;
  if (replicated_write) {
    std::vector<layout::BrickDistribution> ranks;
    ranks.reserve(factor);
    ranks.push_back(handle.record.distribution);
    for (const layout::BrickDistribution& replica : handle.record.replicas) {
      ranks.push_back(replica);
    }
    DPFS_ASSIGN_OR_RETURN(const layout::ReplicatedDistribution dist,
                          layout::ReplicatedDistribution::FromRanks(
                              std::move(ranks)));
    DPFS_ASSIGN_OR_RETURN(expanded, layout::ExpandWritePlan(plan_in, dist));
  }
  const layout::ClientPlan& plan = replicated_write ? expanded : plan_in;

  for (const layout::ServerRequest& request : plan.requests) {
    if (request.server >= handle.record.servers.size()) {
      return InternalError("plan references unknown server index");
    }
  }

  RetryTally tally;
  const auto run_one = [&](const layout::ServerRequest& request) -> Status {
    if (!is_write && factor > 1) {
      return ExecuteReadWithFailover(handle, request, runs, read_buffer,
                                     options, tally);
    }
    return ExecuteOneRequest(handle, request, runs, write_data, read_buffer,
                             is_write, options, tally);
  };

  // Per-request outcomes: a replicated write keeps dispatching after a
  // failure (a lost replica is degradation, not data loss), so every
  // request's status is needed for the durability accounting below.
  std::vector<Status> statuses(plan.requests.size());
  Status status;
  if (options.parallel_dispatch && plan.requests.size() > 1) {
    // Dispatch threads write disjoint runs of the shared buffer, so no
    // synchronization is needed beyond collecting the per-slot statuses.
    ParallelFor(DispatchPool(), plan.requests.size(), [&](std::size_t i) {
      statuses[i] = run_one(plan.requests[i]);
    });
    for (const Status& request_status : statuses) {
      if (!request_status.ok()) {
        status = request_status;
        break;
      }
    }
  } else {
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      statuses[i] = run_one(plan.requests[i]);
      if (!statuses[i].ok()) {
        if (status.ok()) status = statuses[i];
        if (!replicated_write) break;
      }
    }
  }

  std::size_t replica_write_failures = 0;
  if (replicated_write && !status.ok()) {
    // A brick's bytes are lost only when *every* rank's write of it
    // failed; otherwise the access succeeded degraded. Failed servers are
    // marked suspect so subsequent reads prefer the surviving copies.
    std::map<layout::BrickId, std::uint32_t> failed_copies;
    Status lost;
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      if (statuses[i].ok()) continue;
      ++replica_write_failures;
      MarkSuspect(
          handle.record.servers[plan.requests[i].server].endpoint.ToString());
      for (const layout::BrickRequest& brick : plan.requests[i].bricks) {
        if (++failed_copies[brick.brick] == factor) lost = statuses[i];
      }
    }
    status = lost;
  }

  // Retry counters are reported even for failed accesses, so callers can
  // observe retry exhaustion, not just recovery.
  const std::uint64_t retries =
      tally.retries.load(std::memory_order_relaxed);
  const std::uint64_t busy_retries =
      tally.busy_retries.load(std::memory_order_relaxed);
  const std::uint64_t failover_reads =
      tally.failover_reads.load(std::memory_order_relaxed);
  ClientMetrics().retries.Add(retries);
  ClientMetrics().busy_retries.Add(busy_retries);
  ClientMetrics().failover_reads.Add(failover_reads);
  ClientMetrics().replica_write_failures.Add(replica_write_failures);
  if (report != nullptr) {
    report->retries += static_cast<std::size_t>(retries);
    report->busy_retries += static_cast<std::size_t>(busy_retries);
    report->backoff_ms += tally.backoff_ms.load(std::memory_order_relaxed);
    report->failover_reads += static_cast<std::size_t>(failover_reads);
    report->replica_write_failures += replica_write_failures;
  }
  if (!status.ok()) {
    ClientMetrics().failed_accesses.Add();
    return status;
  }

  std::size_t combined = 0;
  for (const layout::ServerRequest& request : plan.requests) {
    if (request.bricks.size() > 1) ++combined;
  }
  ClientMetrics().requests.Add(plan.num_requests());
  ClientMetrics().combined_requests.Add(combined);
  ClientMetrics().transfer_bytes.Add(plan.transfer_bytes());
  ClientMetrics().useful_bytes.Add(plan.useful_bytes());
  if (report != nullptr) {
    report->requests += plan.num_requests();
    report->combined_requests += combined;
    report->transfer_bytes += plan.transfer_bytes();
    report->useful_bytes += plan.useful_bytes();
  }
  return Status::Ok();
}

Status FileSystem::ExecuteOneRequest(const FileHandle& handle,
                                     const layout::ServerRequest& request,
                                     const RunsByBrick& runs,
                                     ByteSpan write_data,
                                     MutableByteSpan read_buffer,
                                     bool is_write, const IoOptions& options,
                                     RetryTally& tally) {
  Status last;
  const int attempts = 1 + std::max(0, options.max_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      tally.retries.fetch_add(1, std::memory_order_relaxed);
      if (last.code() == StatusCode::kResourceExhausted) {
        tally.busy_retries.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t backoff = 2ull * static_cast<std::uint64_t>(attempt);
      tally.backoff_ms.fetch_add(backoff, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    last = TryOneRequest(handle, request, runs, write_data, read_buffer,
                         is_write, options);
    if (last.ok()) return last;
    // Only transient conditions are retried: an overloaded server (§4.2's
    // "try again later") or a connection that could not be established.
    if (last.code() != StatusCode::kResourceExhausted &&
        last.code() != StatusCode::kUnavailable) {
      return last;
    }
  }
  return last;
}

namespace {

/// Fragments [begin, end) of `fragments` ride in one wire request: as many
/// as fit in `max_bytes`, and at least one.
template <typename Fragment, typename LengthOf>
std::size_t BatchEnd(const std::vector<Fragment>& fragments, std::size_t begin,
                     std::uint64_t max_bytes, LengthOf length_of) {
  std::uint64_t bytes = length_of(fragments[begin]);
  std::size_t end = begin + 1;
  while (end < fragments.size() &&
         bytes + length_of(fragments[end]) <= max_bytes) {
    bytes += length_of(fragments[end]);
    ++end;
  }
  return end;
}

}  // namespace

Status FileSystem::TryOneRequest(const FileHandle& handle,
                                 const layout::ServerRequest& request,
                                 const RunsByBrick& runs, ByteSpan write_data,
                                 MutableByteSpan read_buffer, bool is_write,
                                 const IoOptions& options) {
  const FileRecord& record = handle.record;
  const std::uint64_t slot_bytes = handle.map.brick_bytes();
  // Replica rank selection (docs/REPLICATION.md): the request's rank picks
  // both the slot layout and the on-server subfile name. Rank 0 is the
  // primary — plain subfile id, primary distribution — so unreplicated
  // requests are byte-identical to the pre-replication wire traffic.
  const layout::BrickDistribution& dist =
      record.rank_distribution(request.replica);
  const std::string subfile =
      layout::ReplicaSubfileName(record.meta.subfile, request.replica);
  const ServerInfo& server = record.servers[request.server];
  DPFS_ASSIGN_OR_RETURN(PooledConnection conn, pool_.Acquire(server.endpoint));

  if (is_write) {
    // One piece per run, viewing the caller's buffer. Adjacent runs travel
    // as one wire fragment (WriteRequest::Encode merges them), so a fully
    // covered brick is a single contiguous write even though its bytes are
    // gathered from many places in the buffer; `fragment_bytes` holds each
    // wire fragment's length and `first_piece` where it starts.
    std::vector<net::WriteFragment> pieces;
    std::vector<std::uint64_t> fragment_bytes;
    std::vector<std::size_t> first_piece;
    for (const layout::BrickRequest& brick : request.bricks) {
      const std::uint64_t slot = dist.slot_for(brick.brick) * slot_bytes;
      const auto it = runs.find(brick.brick);
      if (it == runs.end()) continue;
      for (const layout::BrickRun& run : it->second) {
        const std::uint64_t offset = slot + run.offset_in_brick;
        if (pieces.empty() ||
            pieces.back().offset + pieces.back().data.size() != offset) {
          fragment_bytes.push_back(0);
          first_piece.push_back(pieces.size());
        }
        pieces.emplace_back(offset,
                            write_data.subspan(run.buffer_offset, run.length));
        fragment_bytes.back() += run.length;
      }
    }
    // Ship in batches bounded by max_request_bytes (one frame each).
    for (std::size_t begin = 0, end = 0; begin < fragment_bytes.size();
         begin = end) {
      end = BatchEnd(fragment_bytes, begin, options.max_request_bytes,
                     [](std::uint64_t bytes) { return bytes; });
      const std::size_t piece_end =
          end < fragment_bytes.size() ? first_piece[end] : pieces.size();
      const Status written = conn->Write(
          subfile,
          std::span(pieces).subspan(first_piece[begin],
                                    piece_end - first_piece[begin]),
          options.sync);
      if (!written.ok()) {
        conn.Poison();
        return written.WithContext("write to " + server.name);
      }
    }
    return Status::Ok();
  }

  // Reads. Whole-brick reads fetch each brick's slot (§3.2 semantics: the
  // client discards what it did not ask for); sieve reads (extension) fetch
  // only the useful runs, coalescing adjacent ones. Either way the reply is
  // the fragments' bytes back to back, and each run is scattered from its
  // offset in that stream.
  struct Piece {
    const layout::BrickRun* run;
    std::uint64_t at;  // offset of the run's bytes in the reply stream
  };
  std::vector<net::ReadFragment> fragments;
  std::vector<std::size_t> first_piece;  // per fragment, into `pieces`
  std::vector<Piece> pieces;
  std::uint64_t stream = 0;
  for (const layout::BrickRequest& brick : request.bricks) {
    const std::uint64_t slot = dist.slot_for(brick.brick) * slot_bytes;
    const auto it = runs.find(brick.brick);
    if (options.whole_brick_reads) {
      fragments.push_back({slot, handle.map.brick_fetch_bytes(brick.brick)});
      first_piece.push_back(pieces.size());
      if (it != runs.end()) {
        for (const layout::BrickRun& run : it->second) {
          pieces.push_back({&run, stream + run.offset_in_brick});
        }
      }
      stream += fragments.back().length;
      continue;
    }
    if (it == runs.end()) continue;
    for (const layout::BrickRun& run : it->second) {
      const std::uint64_t offset = slot + run.offset_in_brick;
      if (!fragments.empty() &&
          fragments.back().offset + fragments.back().length == offset) {
        fragments.back().length += run.length;
      } else {
        fragments.push_back({offset, run.length});
        first_piece.push_back(pieces.size());
      }
      pieces.push_back({&run, stream});
      stream += run.length;
    }
  }
  std::uint64_t batch_start = 0;  // stream offset of fragment `begin`
  for (std::size_t begin = 0, end = 0; begin < fragments.size();
       begin = end) {
    end = BatchEnd(fragments, begin, options.max_request_bytes,
                   [](const net::ReadFragment& f) { return f.length; });
    const std::vector<net::ReadFragment> batch(
        fragments.begin() + static_cast<std::ptrdiff_t>(begin),
        fragments.begin() + static_cast<std::ptrdiff_t>(end));
    const Result<net::ReplyFrame> reply = conn->Read(subfile, batch);
    if (!reply.ok()) {
      conn.Poison();
      return reply.status().WithContext("read from " + server.name);
    }
    const ByteSpan data = reply.value().body();
    const std::size_t piece_end =
        end < fragments.size() ? first_piece[end] : pieces.size();
    for (std::size_t p = first_piece[begin]; p < piece_end; ++p) {
      const layout::BrickRun& run = *pieces[p].run;
      std::copy_n(data.begin() +
                      static_cast<std::ptrdiff_t>(pieces[p].at - batch_start),
                  run.length,
                  read_buffer.begin() +
                      static_cast<std::ptrdiff_t>(run.buffer_offset));
    }
    batch_start += data.size();
  }
  return Status::Ok();
}

namespace {
// How long a server that failed a request is deprioritized (not excluded)
// by read failover.
constexpr std::chrono::seconds kSuspectTtl{5};
}  // namespace

void FileSystem::MarkSuspect(const std::string& endpoint_key) {
  MutexLock lock(suspect_mu_);
  suspects_[endpoint_key] = std::chrono::steady_clock::now() + kSuspectTtl;
}

bool FileSystem::IsSuspect(const std::string& endpoint_key) {
  MutexLock lock(suspect_mu_);
  const auto it = suspects_.find(endpoint_key);
  if (it == suspects_.end()) return false;
  if (std::chrono::steady_clock::now() >= it->second) {
    suspects_.erase(it);
    return false;
  }
  return true;
}

Status FileSystem::ExecuteReadWithFailover(const FileHandle& handle,
                                           const layout::ServerRequest& request,
                                           const RunsByBrick& runs,
                                           MutableByteSpan read_buffer,
                                           const IoOptions& options,
                                           RetryTally& tally) {
  const FileRecord& record = handle.record;
  const std::uint32_t factor = record.replication();
  // Materialize every rank's request(s) up front, then order the ranks so
  // that ranks whose servers are all healthy go first; rank order breaks
  // ties, so the primary is preferred when nothing is suspect.
  struct RankPlan {
    std::uint32_t rank = 0;
    bool suspect = false;
    std::vector<layout::ServerRequest> requests;
  };
  std::vector<RankPlan> ranks;
  ranks.reserve(factor);
  for (std::uint32_t r = 0; r < factor; ++r) {
    RankPlan rank_plan;
    rank_plan.rank = r;
    if (r == 0) {
      rank_plan.requests.push_back(request);
    } else {
      DPFS_ASSIGN_OR_RETURN(
          rank_plan.requests,
          layout::RemapRequestToRank(request, record.rank_distribution(r), r));
    }
    for (const layout::ServerRequest& sub : rank_plan.requests) {
      if (sub.server >= record.servers.size()) {
        return InternalError("replica rank references unknown server index");
      }
      if (IsSuspect(record.servers[sub.server].endpoint.ToString())) {
        rank_plan.suspect = true;
      }
    }
    ranks.push_back(std::move(rank_plan));
  }
  std::stable_sort(ranks.begin(), ranks.end(),
                   [](const RankPlan& a, const RankPlan& b) {
                     return !a.suspect && b.suspect;
                   });

  Status last;
  for (const RankPlan& rank_plan : ranks) {
    Status rank_status;
    for (const layout::ServerRequest& sub : rank_plan.requests) {
      rank_status = ExecuteOneRequest(handle, sub, runs, /*write_data=*/{},
                                      read_buffer, /*is_write=*/false, options,
                                      tally);
      if (!rank_status.ok()) break;
    }
    if (rank_status.ok()) {
      if (rank_plan.rank != 0) {
        tally.failover_reads.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Ok();
    }
    last = rank_status;
    // Only transient failures fail over — a malformed request would fail
    // identically on every rank, so surface it immediately.
    if (rank_status.code() != StatusCode::kUnavailable &&
        rank_status.code() != StatusCode::kResourceExhausted) {
      return rank_status;
    }
    for (const layout::ServerRequest& sub : rank_plan.requests) {
      MarkSuspect(record.servers[sub.server].endpoint.ToString());
    }
  }
  return last;
}

// ---------------------------------------------------------------------------
// Region access

namespace {

layout::PlanOptions ToPlanOptions(const IoOptions& options,
                                  layout::IoDirection direction) {
  layout::PlanOptions plan_options;
  plan_options.direction = direction;
  plan_options.combine = options.combine;
  plan_options.rotate_start = options.rotate_start;
  plan_options.whole_brick_reads = options.whole_brick_reads;
  plan_options.parallel_dispatch = options.parallel_dispatch;
  return plan_options;
}

}  // namespace

Status FileSystem::WriteRegion(FileHandle& handle,
                               const layout::Region& region, ByteSpan data,
                               const IoOptions& options, IoReport* report) {
  const std::uint64_t expected =
      region.num_elements() * handle.map.element_size();
  if (data.size() != expected) {
    return InvalidArgumentError(
        "buffer is " + std::to_string(data.size()) + " bytes, region needs " +
        std::to_string(expected));
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanRegionAccess(handle.map, handle.record.distribution,
                               handle.client_id, region,
                               ToPlanOptions(options,
                                             layout::IoDirection::kWrite)));
  RunsByBrick runs;
  DPFS_RETURN_IF_ERROR(handle.map.ForEachRun(
      region,
      [&runs](const layout::BrickRun& run) { runs[run.brick].push_back(run); }));
  return ExecutePlan(handle, plan, runs, data, {}, options, report);
}

Status FileSystem::ReadRegion(FileHandle& handle, const layout::Region& region,
                              MutableByteSpan out, const IoOptions& options,
                              IoReport* report) {
  const std::uint64_t expected =
      region.num_elements() * handle.map.element_size();
  if (out.size() != expected) {
    return InvalidArgumentError(
        "buffer is " + std::to_string(out.size()) + " bytes, region needs " +
        std::to_string(expected));
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanRegionAccess(handle.map, handle.record.distribution,
                               handle.client_id, region,
                               ToPlanOptions(options,
                                             layout::IoDirection::kRead)));
  RunsByBrick runs;
  DPFS_RETURN_IF_ERROR(handle.map.ForEachRun(
      region,
      [&runs](const layout::BrickRun& run) { runs[run.brick].push_back(run); }));
  return ExecutePlan(handle, plan, runs, {}, out, options, report);
}

// ---------------------------------------------------------------------------
// Byte and derived-datatype access

namespace {

/// True when [offset, offset + length) lies inside a file of `total` bytes.
/// Written without offset + length, which can wrap past 2^64.
bool FitsInFile(std::uint64_t offset, std::uint64_t length,
                std::uint64_t total) {
  return length <= total && offset <= total - length;
}

std::vector<layout::FileExtent> ShiftExtents(const Datatype& type,
                                             std::uint64_t base_offset) {
  std::vector<layout::FileExtent> extents;
  extents.reserve(type.num_extents());
  for (const ByteExtent& extent : type.extents()) {
    extents.push_back({base_offset + extent.offset, extent.length});
  }
  return extents;
}

}  // namespace

Status FileSystem::WriteBytes(FileHandle& handle, std::uint64_t offset,
                              ByteSpan data, const IoOptions& options,
                              IoReport* report) {
  if (!FitsInFile(offset, data.size(), handle.map.total_bytes())) {
    return OutOfRangeError("write past end of file (capacity " +
                           std::to_string(handle.map.total_bytes()) + ")");
  }
  std::vector<layout::FileExtent> extents;
  if (!data.empty()) extents.push_back({offset, data.size()});
  return ExecuteExtents(handle, extents, data, {}, layout::IoDirection::kWrite,
                        options, report);
}

Status FileSystem::ReadBytes(FileHandle& handle, std::uint64_t offset,
                             MutableByteSpan out, const IoOptions& options,
                             IoReport* report) {
  if (!FitsInFile(offset, out.size(), handle.map.total_bytes())) {
    return OutOfRangeError("read past end of file (size " +
                           std::to_string(handle.map.total_bytes()) + ")");
  }
  std::vector<layout::FileExtent> extents;
  if (!out.empty()) extents.push_back({offset, out.size()});
  return ExecuteExtents(handle, extents, {}, out, layout::IoDirection::kRead,
                        options, report);
}

Status FileSystem::WriteType(FileHandle& handle, std::uint64_t base_offset,
                             const Datatype& type, ByteSpan data,
                             const IoOptions& options, IoReport* report) {
  if (data.size() != type.size()) {
    return InvalidArgumentError("buffer size " + std::to_string(data.size()) +
                                " != datatype payload " +
                                std::to_string(type.size()));
  }
  if (!FitsInFile(base_offset, type.extent(), handle.map.total_bytes())) {
    return OutOfRangeError("datatype write past end of file");
  }
  return ExecuteExtents(handle, ShiftExtents(type, base_offset), data, {},
                        layout::IoDirection::kWrite, options, report);
}

Status FileSystem::ReadType(FileHandle& handle, std::uint64_t base_offset,
                            const Datatype& type, MutableByteSpan out,
                            const IoOptions& options, IoReport* report) {
  if (out.size() != type.size()) {
    return InvalidArgumentError("buffer size " + std::to_string(out.size()) +
                                " != datatype payload " +
                                std::to_string(type.size()));
  }
  if (!FitsInFile(base_offset, type.extent(), handle.map.total_bytes())) {
    return OutOfRangeError("datatype read past end of file");
  }
  return ExecuteExtents(handle, ShiftExtents(type, base_offset), {}, out,
                        layout::IoDirection::kRead, options, report);
}

Status FileSystem::ExecuteExtents(
    const FileHandle& handle, const std::vector<layout::FileExtent>& extents,
    ByteSpan write_data, MutableByteSpan read_buffer,
    layout::IoDirection direction, const IoOptions& options,
    IoReport* report) {
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanListAccess(handle.map, handle.record.distribution,
                             handle.client_id, extents,
                             ToPlanOptions(options, direction)));
  // Each extent's runs, shifted to where its bytes sit in the packed buffer.
  RunsByBrick runs;
  std::uint64_t packed = 0;
  for (const layout::FileExtent& extent : extents) {
    DPFS_RETURN_IF_ERROR(handle.map.ForEachByteRun(
        extent.offset, extent.length, [&](const layout::BrickRun& run) {
          layout::BrickRun shifted = run;
          shifted.buffer_offset += packed;
          runs[run.brick].push_back(shifted);
        }));
    packed += extent.length;
  }
  return ExecutePlan(handle, plan, runs, write_data, read_buffer, options,
                     report);
}

}  // namespace dpfs::client
