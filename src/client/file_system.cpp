#include "client/file_system.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <chrono>
#include <thread>

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
  // List-I/O (IoOptions::list_io) wire requests, a subset of
  // client.requests (docs/NONCONTIGUOUS_IO.md).
  metrics::Counter& list_requests = metrics::GetCounter("client.list_requests");
  // Datatype accesses that asked for list I/O on a replicated file and took
  // the per-extent path instead (docs/REPLICATION.md "Composition limits").
  metrics::Counter& list_io_fallbacks =
      metrics::GetCounter("client.list_io_fallbacks");
  // Replication extension (docs/REPLICATION.md): reads served by a replica
  // rank > 0, and write-side replica requests that failed while the brick
  // stayed durable on another rank.
  metrics::Counter& failover_reads =
      metrics::GetCounter("client.failover_reads");
  metrics::Counter& replica_write_failures =
      metrics::GetCounter("client.replica_write_failures");
};
ClientMetricsT& ClientMetrics() {
  static ClientMetricsT m;
  return m;
}
}  // namespace

Result<std::shared_ptr<FileSystem>> FileSystem::Connect(
    std::shared_ptr<metadb::ShardedDatabase> db) {
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
  DPFS_ASSIGN_OR_RETURN(const FileRecord record, metadata_->LookupFile(path));
  for (const ServerInfo& server : record.servers) {
    DPFS_ASSIGN_OR_RETURN(PooledConnection conn,
                          pool_.Acquire(server.endpoint));
    // Every replica rank stores its own subfile name (rank 0 is the plain
    // path); a server that never received a brick write for a rank has no
    // subfile for it, which is fine.
    for (std::uint32_t rank = 0; rank < record.replication(); ++rank) {
      const Status deleted =
          conn->Delete(layout::ReplicaSubfileName(record.meta.path, rank));
      if (!deleted.ok() && deleted.code() != StatusCode::kNotFound) {
        conn.Poison();
        return deleted.WithContext("delete subfile on " + server.name);
      }
    }
  }
  if (brick_cache_ != nullptr) brick_cache_->InvalidateFile(record.meta.path);
  return metadata_->DeleteFile(path);
}

void FileSystem::EnableBrickCache(std::uint64_t capacity_bytes) {
  brick_cache_ = std::make_unique<BrickCache>(capacity_bytes);
}

Result<std::string> FileSystem::AdviseLevel(const std::string& path) {
  DPFS_ASSIGN_OR_RETURN(const FileRecord record, metadata_->LookupFile(path));
  DPFS_ASSIGN_OR_RETURN(const MetadataManager::AccessSummary summary,
                        metadata_->SummarizeAccess(path));
  const FileMeta& meta = record.meta;
  if (summary.accesses == 0) {
    return std::string(
        "no access observations yet — enable SetAccessLogging(true) and run "
        "the workload");
  }
  const double efficiency = summary.efficiency();
  const double requests_per_access =
      static_cast<double>(summary.requests) /
      static_cast<double>(summary.accesses);
  char stats[160];
  std::snprintf(stats, sizeof(stats),
                "%llu accesses, %.1f requests/access, %.1f%% wire efficiency: ",
                static_cast<unsigned long long>(summary.accesses),
                requests_per_access, efficiency * 100.0);
  std::string advice(stats);

  if (meta.level == layout::FileLevel::kLinear && efficiency < 0.5 &&
      !meta.array_shape.empty()) {
    advice +=
        "whole-brick reads discard most of each linear brick (the Fig 5 "
        "pathology) — recreate at level=multidim with a square tile, or use "
        "sieve reads (IoOptions::whole_brick_reads = false)";
  } else if (meta.level != layout::FileLevel::kArray &&
             requests_per_access >
                 4.0 * static_cast<double>(record.servers.size()) &&
             efficiency > 0.9) {
    advice +=
        "access is efficient but chatty — enable request combination, or if "
        "each client reads one HPF chunk, recreate at level=array";
  } else if (efficiency > 0.9 &&
             requests_per_access <=
                 static_cast<double>(record.servers.size())) {
    advice += "the current level=";
    advice += layout::FileLevelName(meta.level);
    advice += " fits this workload";
  } else {
    advice +=
        "mixed pattern — consider a multidim tile sized to the smaller "
        "access dimension (see bench/ablation_brick_size)";
  }
  return advice;
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
  return metadata_->RemoveDirectory(normalized, /*recursive=*/false);
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  DPFS_ASSIGN_OR_RETURN(const std::string src, NormalizePath(from));
  DPFS_ASSIGN_OR_RETURN(const std::string dst, NormalizePath(to));
  DPFS_ASSIGN_OR_RETURN(const FileRecord record, metadata_->LookupFile(src));
  // Validate the metadata preconditions before touching any subfile, so a
  // doomed rename does not strand data under the new name.
  DPFS_ASSIGN_OR_RETURN(const bool dst_exists, metadata_->FileExists(dst));
  if (dst_exists) return AlreadyExistsError("file '" + dst + "' exists");

  // (server, replica rank) pairs renamed so far, for rollback on failure.
  std::vector<std::pair<const ServerInfo*, std::uint32_t>> renamed;
  Status failure;
  for (const ServerInfo& server : record.servers) {
    DPFS_ASSIGN_OR_RETURN(PooledConnection conn,
                          pool_.Acquire(server.endpoint));
    for (std::uint32_t rank = 0; rank < record.replication(); ++rank) {
      const Status status =
          conn->Rename(layout::ReplicaSubfileName(src, rank),
                       layout::ReplicaSubfileName(dst, rank));
      // A server that never received a brick write has no subfile to rename.
      if (status.ok()) {
        renamed.push_back({&server, rank});
      } else if (status.code() != StatusCode::kNotFound) {
        conn.Poison();
        failure = status.WithContext("rename subfile on " + server.name);
        break;
      }
    }
    if (!failure.ok()) break;
  }
  if (failure.ok()) {
    failure = metadata_->RenameFile(src, dst);
  }
  if (!failure.ok()) {
    // Best-effort rollback of the subfiles already renamed.
    for (const auto& [server, rank] : renamed) {
      Result<PooledConnection> conn = pool_.Acquire(server->endpoint);
      if (conn.ok()) {
        PooledConnection pooled = std::move(conn).value();
        // dpfs:unchecked(best-effort rollback: the original failure is
        // what the caller must see, not a secondary undo error)
        (void)pooled->Rename(layout::ReplicaSubfileName(dst, rank),
                             layout::ReplicaSubfileName(src, rank));
      }
    }
    return failure;
  }
  if (brick_cache_ != nullptr) {
    brick_cache_->InvalidateFile(src);
    brick_cache_->InvalidateFile(dst);
  }
  return Status::Ok();
}

Result<FileSystem::FsckReport> FileSystem::Fsck(bool repair) {
  if (embedded_ == nullptr) {
    return UnimplementedError(
        "fsck reads DPFS_FILE_ATTR directly and needs embedded metadata; "
        "run it on the host that owns the metadata database");
  }
  FsckReport report;
  // Expected file set from DPFS_FILE_ATTR, unioned across every shard.
  metadb::ShardedDatabase& db = embedded_->sharded_db();
  std::set<std::string> expected;
  for (std::size_t shard = 0; shard < db.num_shards(); ++shard) {
    DPFS_ASSIGN_OR_RETURN(
        const metadb::ResultSet attr,
        db.shard(shard).Execute("SELECT filename FROM DPFS_FILE_ATTR"));
    for (std::size_t row = 0; row < attr.size(); ++row) {
      DPFS_ASSIGN_OR_RETURN(std::string name, attr.GetText(row, "filename"));
      expected.insert(std::move(name));
    }
  }
  report.files_checked = expected.size();
  // Replicated files (docs/REPLICATION.md) also legitimately own per-rank
  // subfiles named "<path>#r<rank>"; learn the ranks from the distribution
  // rows so replicas are not misreported as orphans.
  for (std::size_t shard = 0; shard < db.num_shards(); ++shard) {
    DPFS_ASSIGN_OR_RETURN(
        const metadb::ResultSet dist,
        db.shard(shard).Execute(
            "SELECT filename, replica FROM DPFS_FILE_DISTRIBUTION"));
    for (std::size_t row = 0; row < dist.size(); ++row) {
      DPFS_ASSIGN_OR_RETURN(const std::int64_t rank,
                            dist.GetInt(row, "replica"));
      if (rank <= 0) continue;
      DPFS_ASSIGN_OR_RETURN(std::string name, dist.GetText(row, "filename"));
      expected.insert(layout::ReplicaSubfileName(
          name, static_cast<std::uint32_t>(rank)));
    }
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
  const bool replicated_write = is_write && factor > 1 && !plan_in.list_io;
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
    if (!is_write && factor > 1 && request.list_extents.empty()) {
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
  if (plan.list_io) ClientMetrics().list_requests.Add(plan.num_requests());
  if (report != nullptr) {
    report->requests += plan.num_requests();
    report->combined_requests += combined;
    report->transfer_bytes += plan.transfer_bytes();
    report->useful_bytes += plan.useful_bytes();
  }
  if (access_logging_.load(std::memory_order_relaxed)) {
    // dpfs:unchecked(access logging is advisory telemetry; a failed log
    // write must not fail the I/O it describes)
    (void)metadata_->LogAccess(handle.record.meta.path, is_write,
                               plan.num_requests(), plan.transfer_bytes(),
                               plan.useful_bytes());
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

Status FileSystem::TryOneRequest(const FileHandle& handle,
                                 const layout::ServerRequest& request,
                                 const RunsByBrick& runs, ByteSpan write_data,
                                 MutableByteSpan read_buffer, bool is_write,
                                 const IoOptions& options) {
  const FileRecord& record = handle.record;
  const std::uint64_t slot_bytes = handle.map.brick_bytes();
  // Replica rank selection (docs/REPLICATION.md): the request's rank picks
  // both the slot layout and the on-server subfile name. Rank 0 is the
  // primary — plain path, primary distribution — so unreplicated requests
  // are byte-identical to the pre-replication wire traffic.
  const layout::BrickDistribution& dist =
      record.rank_distribution(request.replica);
  const std::string subfile =
      layout::ReplicaSubfileName(record.meta.path, request.replica);
  {
    const ServerInfo& server = record.servers[request.server];
    DPFS_ASSIGN_OR_RETURN(PooledConnection conn,
                          pool_.Acquire(server.endpoint));

    if (!request.list_extents.empty()) {
      // List I/O (docs/NONCONTIGUOUS_IO.md): the plan already carries the
      // wire extents (subfile offset/length plus the packed-buffer offset),
      // so each batch ships them verbatim as one list_read/list_write —
      // `runs` is not consulted on this path.
      const std::vector<layout::ListExtent>& extents = request.list_extents;
      std::size_t begin = 0;
      while (begin < extents.size()) {
        std::size_t end = begin;
        std::uint64_t batch_bytes = 0;
        while (end < extents.size() &&
               (end == begin || batch_bytes + extents[end].length <=
                                    options.max_request_bytes)) {
          batch_bytes += extents[end].length;
          ++end;
        }
        std::vector<net::ReadFragment> wire;
        wire.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          wire.push_back({extents[i].subfile_offset, extents[i].length});
        }
        if (is_write) {
          // Gather the batched payload in extent order; its size must equal
          // the extent sum (the server rejects mismatches at decode time).
          Bytes payload;
          payload.reserve(static_cast<std::size_t>(batch_bytes));
          for (std::size_t i = begin; i < end; ++i) {
            payload.insert(
                payload.end(),
                write_data.begin() +
                    static_cast<std::ptrdiff_t>(extents[i].buffer_offset),
                write_data.begin() +
                    static_cast<std::ptrdiff_t>(extents[i].buffer_offset +
                                                extents[i].length));
          }
          const Status written = conn->ListWrite(subfile, wire,
                                                 std::move(payload),
                                                 options.sync);
          if (!written.ok()) {
            conn.Poison();
            return written.WithContext("list write to " + server.name);
          }
        } else {
          const Result<Bytes> data = conn->ListRead(subfile, wire);
          if (!data.ok()) {
            conn.Poison();
            return data.status().WithContext("list read from " + server.name);
          }
          // The reply is the batch's extent bytes concatenated in order.
          std::uint64_t cursor = 0;
          for (std::size_t i = begin; i < end; ++i) {
            std::copy_n(
                data.value().begin() + static_cast<std::ptrdiff_t>(cursor),
                extents[i].length,
                read_buffer.begin() +
                    static_cast<std::ptrdiff_t>(extents[i].buffer_offset));
            cursor += extents[i].length;
          }
        }
        begin = end;
      }
      if (is_write && brick_cache_ != nullptr) {
        for (const layout::BrickRequest& brick : request.bricks) {
          brick_cache_->Invalidate(record.meta.path, brick.brick);
        }
      }
    } else if (is_write) {
      // Adjacent runs within a brick coalesce into one fragment: a fully
      // covered brick travels as a single contiguous write even though its
      // bytes are gathered from many places in the user's buffer.
      std::vector<net::WriteFragment> fragments;
      for (const layout::BrickRequest& brick : request.bricks) {
        const std::uint64_t slot =
            dist.slot_for(brick.brick) * slot_bytes;
        const auto it = runs.find(brick.brick);
        if (it == runs.end()) continue;
        for (const layout::BrickRun& run : it->second) {
          const bool extends =
              !fragments.empty() &&
              fragments.back().offset + fragments.back().data.size() ==
                  slot + run.offset_in_brick;
          if (!extends) {
            net::WriteFragment fragment;
            fragment.offset = slot + run.offset_in_brick;
            fragments.push_back(std::move(fragment));
          }
          fragments.back().data.insert(
              fragments.back().data.end(),
              write_data.begin() +
                  static_cast<std::ptrdiff_t>(run.buffer_offset),
              write_data.begin() +
                  static_cast<std::ptrdiff_t>(run.buffer_offset + run.length));
        }
      }
      // Ship in batches bounded by max_request_bytes (one frame each).
      std::size_t begin = 0;
      while (begin < fragments.size()) {
        std::size_t end = begin;
        std::uint64_t batch_bytes = 0;
        std::vector<net::WriteFragment> batch;
        while (end < fragments.size() &&
               (end == begin || batch_bytes + fragments[end].data.size() <=
                                    options.max_request_bytes)) {
          batch_bytes += fragments[end].data.size();
          batch.push_back(std::move(fragments[end]));
          ++end;
        }
        const Status written =
            conn->Write(subfile, std::move(batch), options.sync);
        if (!written.ok()) {
          conn.Poison();
          return written.WithContext("write to " + server.name);
        }
        begin = end;
      }
      if (brick_cache_ != nullptr) {
        for (const layout::BrickRequest& brick : request.bricks) {
          brick_cache_->Invalidate(record.meta.path, brick.brick);
        }
      }
    } else if (options.whole_brick_reads) {
      // Reads move whole bricks (§3.2 semantics); the useful runs are
      // scattered out of the returned brick images. Cached bricks are
      // served locally and skipped on the wire.
      const auto scatter = [&](const layout::BrickRequest& brick,
                               ByteSpan image) {
        const auto it = runs.find(brick.brick);
        if (it == runs.end()) return;
        for (const layout::BrickRun& run : it->second) {
          std::copy_n(
              image.begin() + static_cast<std::ptrdiff_t>(run.offset_in_brick),
              run.length,
              read_buffer.begin() +
                  static_cast<std::ptrdiff_t>(run.buffer_offset));
        }
      };

      std::vector<net::ReadFragment> fragments;
      std::vector<const layout::BrickRequest*> fetched;
      for (const layout::BrickRequest& brick : request.bricks) {
        if (brick_cache_ != nullptr) {
          if (const std::optional<Bytes> image =
                  brick_cache_->Get(record.meta.path, brick.brick)) {
            scatter(brick, *image);
            continue;
          }
        }
        net::ReadFragment fragment;
        fragment.offset = dist.slot_for(brick.brick) * slot_bytes;
        fragment.length = handle.map.brick_fetch_bytes(brick.brick);
        fragments.push_back(fragment);
        fetched.push_back(&brick);
      }
      std::size_t begin = 0;
      while (begin < fragments.size()) {
        std::size_t end = begin;
        std::uint64_t batch_bytes = 0;
        while (end < fragments.size() &&
               (end == begin || batch_bytes + fragments[end].length <=
                                    options.max_request_bytes)) {
          batch_bytes += fragments[end].length;
          ++end;
        }
        const std::vector<net::ReadFragment> batch(
            fragments.begin() + static_cast<std::ptrdiff_t>(begin),
            fragments.begin() + static_cast<std::ptrdiff_t>(end));
        const Result<Bytes> data = conn->Read(subfile, batch);
        if (!data.ok()) {
          conn.Poison();
          return data.status().WithContext("read from " + server.name);
        }
        std::uint64_t image_base = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const ByteSpan image =
              ByteSpan(data.value()).subspan(image_base, fragments[i].length);
          scatter(*fetched[i], image);
          if (brick_cache_ != nullptr) {
            brick_cache_->Put(record.meta.path, fetched[i]->brick,
                              Bytes(image.begin(), image.end()));
          }
          image_base += fragments[i].length;
        }
        begin = end;
      }
    } else {
      // Sieve reads (extension): fetch only the useful runs, coalescing
      // adjacent runs into single fragments; the reply byte stream equals
      // the runs' bytes in order, so scattering walks a cursor.
      std::vector<net::ReadFragment> fragments;
      std::vector<const layout::BrickRun*> fragment_runs;
      std::vector<std::size_t> fragment_first_run;  // index into fragment_runs
      for (const layout::BrickRequest& brick : request.bricks) {
        const std::uint64_t slot =
            dist.slot_for(brick.brick) * slot_bytes;
        const auto it = runs.find(brick.brick);
        if (it == runs.end()) continue;
        for (const layout::BrickRun& run : it->second) {
          const bool extends =
              !fragments.empty() &&
              fragments.back().offset + fragments.back().length ==
                  slot + run.offset_in_brick;
          if (extends) {
            fragments.back().length += run.length;
          } else {
            fragments.push_back({slot + run.offset_in_brick, run.length});
            fragment_first_run.push_back(fragment_runs.size());
          }
          fragment_runs.push_back(&run);
        }
      }
      std::size_t begin = 0;
      while (begin < fragments.size()) {
        std::size_t end = begin;
        std::uint64_t batch_bytes = 0;
        while (end < fragments.size() &&
               (end == begin || batch_bytes + fragments[end].length <=
                                    options.max_request_bytes)) {
          batch_bytes += fragments[end].length;
          ++end;
        }
        const std::vector<net::ReadFragment> batch(
            fragments.begin() + static_cast<std::ptrdiff_t>(begin),
            fragments.begin() + static_cast<std::ptrdiff_t>(end));
        const Result<Bytes> data = conn->Read(subfile, batch);
        if (!data.ok()) {
          conn.Poison();
          return data.status().WithContext("read from " + server.name);
        }
        // The reply equals the batch's runs' bytes in order.
        const std::size_t run_begin = fragment_first_run[begin];
        const std::size_t run_end = end < fragments.size()
                                        ? fragment_first_run[end]
                                        : fragment_runs.size();
        std::uint64_t cursor = 0;
        for (std::size_t r = run_begin; r < run_end; ++r) {
          const layout::BrickRun* run = fragment_runs[r];
          std::copy_n(
              data.value().begin() + static_cast<std::ptrdiff_t>(cursor),
              run->length,
              read_buffer.begin() +
                  static_cast<std::ptrdiff_t>(run->buffer_offset));
          cursor += run->length;
        }
        begin = end;
      }
    }
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
// Byte access

Status FileSystem::WriteBytes(FileHandle& handle, std::uint64_t offset,
                              ByteSpan data, const IoOptions& options,
                              IoReport* report) {
  if (offset + data.size() > handle.map.total_bytes()) {
    return OutOfRangeError("write past end of file (capacity " +
                           std::to_string(handle.map.total_bytes()) + ")");
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanByteAccess(handle.map, handle.record.distribution,
                             handle.client_id, offset, data.size(),
                             ToPlanOptions(options,
                                           layout::IoDirection::kWrite)));
  RunsByBrick runs;
  DPFS_RETURN_IF_ERROR(handle.map.ForEachByteRun(
      offset, data.size(),
      [&runs](const layout::BrickRun& run) { runs[run.brick].push_back(run); }));
  return ExecutePlan(handle, plan, runs, data, {}, options, report);
}

Status FileSystem::ReadBytes(FileHandle& handle, std::uint64_t offset,
                             MutableByteSpan out, const IoOptions& options,
                             IoReport* report) {
  if (offset + out.size() > handle.map.total_bytes()) {
    return OutOfRangeError("read past end of file (size " +
                           std::to_string(handle.map.total_bytes()) + ")");
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanByteAccess(handle.map, handle.record.distribution,
                             handle.client_id, offset, out.size(),
                             ToPlanOptions(options,
                                           layout::IoDirection::kRead)));
  RunsByBrick runs;
  DPFS_RETURN_IF_ERROR(handle.map.ForEachByteRun(
      offset, out.size(),
      [&runs](const layout::BrickRun& run) { runs[run.brick].push_back(run); }));
  return ExecutePlan(handle, plan, runs, {}, out, options, report);
}

// ---------------------------------------------------------------------------
// Derived-datatype access

Status FileSystem::WriteType(FileHandle& handle, std::uint64_t base_offset,
                             const Datatype& type, ByteSpan data,
                             const IoOptions& options, IoReport* report) {
  if (data.size() != type.size()) {
    return InvalidArgumentError("buffer size " + std::to_string(data.size()) +
                                " != datatype payload " +
                                std::to_string(type.size()));
  }
  if (base_offset + type.extent() > handle.map.total_bytes()) {
    return OutOfRangeError("datatype write past end of file");
  }
  // List I/O does not compose with replication (a list plan's extents are
  // absolute rank-0 subfile offsets); replicated files fall back to the
  // per-extent path, which fans out and fails over per docs/REPLICATION.md,
  // and count the fallback.
  if (options.list_io && handle.record.replication() == 1) {
    return ExecuteListAccess(handle, base_offset, type.extents(), data, {},
                             layout::IoDirection::kWrite, options, report);
  }
  if (options.list_io) ClientMetrics().list_io_fallbacks.Add();
  // One access per coalesced extent keeps the semantics simple; the extents
  // are already merged, so this matches what MPI-IO data sieving would issue
  // without read-modify-write.
  std::uint64_t buffer_cursor = 0;
  for (const ByteExtent& extent : type.extents()) {
    DPFS_RETURN_IF_ERROR(WriteBytes(
        handle, base_offset + extent.offset,
        data.subspan(buffer_cursor, extent.length), options, report));
    buffer_cursor += extent.length;
  }
  return Status::Ok();
}

Status FileSystem::ReadType(FileHandle& handle, std::uint64_t base_offset,
                            const Datatype& type, MutableByteSpan out,
                            const IoOptions& options, IoReport* report) {
  if (out.size() != type.size()) {
    return InvalidArgumentError("buffer size " + std::to_string(out.size()) +
                                " != datatype payload " +
                                std::to_string(type.size()));
  }
  if (base_offset + type.extent() > handle.map.total_bytes()) {
    return OutOfRangeError("datatype read past end of file");
  }
  // Same counted replication fallback as WriteType: per-extent accesses get
  // read failover, list plans would not.
  if (options.list_io && handle.record.replication() == 1) {
    return ExecuteListAccess(handle, base_offset, type.extents(), {}, out,
                             layout::IoDirection::kRead, options, report);
  }
  if (options.list_io) ClientMetrics().list_io_fallbacks.Add();
  std::uint64_t buffer_cursor = 0;
  for (const ByteExtent& extent : type.extents()) {
    DPFS_RETURN_IF_ERROR(ReadBytes(
        handle, base_offset + extent.offset,
        out.subspan(buffer_cursor, extent.length), options, report));
    buffer_cursor += extent.length;
  }
  return Status::Ok();
}

Status FileSystem::ExecuteListAccess(const FileHandle& handle,
                                     std::uint64_t base_offset,
                                     const std::vector<ByteExtent>& extents,
                                     ByteSpan write_data,
                                     MutableByteSpan read_buffer,
                                     layout::IoDirection direction,
                                     const IoOptions& options,
                                     IoReport* report) {
  std::vector<layout::FileExtent> file_extents;
  file_extents.reserve(extents.size());
  for (const ByteExtent& extent : extents) {
    file_extents.push_back(
        layout::FileExtent{base_offset + extent.offset, extent.length});
  }
  DPFS_ASSIGN_OR_RETURN(
      const layout::ClientPlan plan,
      layout::PlanListAccess(handle.map, handle.record.distribution,
                             handle.client_id, file_extents,
                             ToPlanOptions(options, direction)));
  return ExecutePlan(handle, plan, RunsByBrick{}, write_data, read_buffer,
                     options, report);
}

}  // namespace dpfs::client
