#include "layout/plan.h"

#include <algorithm>
#include <map>

namespace dpfs::layout {

std::uint64_t ServerRequest::transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const BrickRequest& brick : bricks) total += brick.transfer_bytes;
  return total;
}

std::uint64_t ServerRequest::useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const BrickRequest& brick : bricks) total += brick.useful_bytes;
  return total;
}

std::uint64_t ClientPlan::transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ServerRequest& request : requests) {
    total += request.transfer_bytes();
  }
  return total;
}

std::uint64_t ClientPlan::useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ServerRequest& request : requests) total += request.useful_bytes();
  return total;
}

std::size_t IoPlan::total_requests() const noexcept {
  std::size_t total = 0;
  for (const ClientPlan& client : clients) total += client.num_requests();
  return total;
}

std::uint64_t IoPlan::total_transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ClientPlan& client : clients) total += client.transfer_bytes();
  return total;
}

std::uint64_t IoPlan::total_useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ClientPlan& client : clients) total += client.useful_bytes();
  return total;
}

namespace {

BrickRequest MakeBrickRequest(const BrickMap& map, const PlanOptions& options,
                              BrickId brick, const BrickUsage& usage) {
  BrickRequest request;
  request.brick = brick;
  request.useful_bytes = usage.useful_bytes;
  request.num_runs = usage.num_runs;
  request.fragments = std::max<std::uint64_t>(1, usage.fragments);
  // Whole-brick reads move the whole brick (the client discards the rest);
  // sieve reads and writes move only the useful bytes, at the right subfile
  // offsets.
  request.transfer_bytes =
      options.direction == IoDirection::kRead && options.whole_brick_reads
          ? map.brick_fetch_bytes(brick)
          : usage.useful_bytes;
  return request;
}

/// Builds the ordered request stream from a per-brick usage summary.
ClientPlan BuildPlan(const BrickMap& map, const BrickDistribution& dist,
                     std::uint32_t client,
                     const std::map<BrickId, BrickUsage>& usage,
                     const PlanOptions& options) {
  ClientPlan plan;
  plan.client = client;
  plan.direction = options.direction;
  plan.whole_brick_reads = options.whole_brick_reads;
  plan.parallel_dispatch = options.parallel_dispatch;

  if (!options.combine) {
    // General approach (§4.2): one request per brick, issued in ascending
    // brick order — exactly the behaviour whose congestion the paper
    // analyses (all clients start on the same server).
    plan.requests.reserve(usage.size());
    for (const auto& [brick, brick_usage] : usage) {
      ServerRequest request;
      request.server = dist.server_for(brick);
      request.bricks.push_back(
          MakeBrickRequest(map, options, brick, brick_usage));
      plan.requests.push_back(std::move(request));
    }
    return plan;
  }

  // Request combination: group bricks by owning server (keeping ascending
  // brick order inside each request).
  std::map<ServerId, ServerRequest> grouped;
  for (const auto& [brick, brick_usage] : usage) {
    const ServerId server = dist.server_for(brick);
    ServerRequest& request = grouped[server];
    request.server = server;
    request.bricks.push_back(
        MakeBrickRequest(map, options, brick, brick_usage));
  }
  std::vector<ServerRequest> requests;
  requests.reserve(grouped.size());
  for (auto& [server, request] : grouped) {
    requests.push_back(std::move(request));
  }
  // Scheduling: rotate the server order per client so client c begins at a
  // different server than client c+1 (§4.2's subfile staggering).
  if (options.rotate_start && !requests.empty()) {
    const std::size_t shift = client % requests.size();
    std::rotate(requests.begin(), requests.begin() + shift, requests.end());
  }
  plan.requests = std::move(requests);
  return plan;
}

Status CheckDistributionCoversFile(const BrickMap& map,
                                   const BrickDistribution& dist) {
  if (dist.num_bricks() < map.num_bricks()) {
    return InvalidArgumentError(
        "distribution covers " + std::to_string(dist.num_bricks()) +
        " bricks but file has " + std::to_string(map.num_bricks()));
  }
  return Status::Ok();
}

}  // namespace

Result<ClientPlan> PlanRegionAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    std::uint32_t client, const Region& region,
                                    const PlanOptions& options) {
  DPFS_RETURN_IF_ERROR(CheckDistributionCoversFile(map, dist));
  DPFS_ASSIGN_OR_RETURN(const auto usage, map.SummarizeRegion(region));
  return BuildPlan(map, dist, client, usage, options);
}

Result<ClientPlan> PlanByteAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client, std::uint64_t offset,
                                  std::uint64_t length,
                                  const PlanOptions& options) {
  std::vector<FileExtent> extents;
  if (length > 0) extents.push_back({offset, length});
  return PlanListAccess(map, dist, client, extents, options);
}

Result<ClientPlan> PlanListAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client,
                                  const std::vector<FileExtent>& extents,
                                  const PlanOptions& options) {
  if (map.level() != FileLevel::kLinear) {
    return InvalidArgumentError("byte-extent access requires a linear file");
  }
  DPFS_RETURN_IF_ERROR(CheckDistributionCoversFile(map, dist));
  // Merge touching extents first, so a brick counts one fragment per
  // separate piece of it the access needs, then sum each merged extent's
  // per-brick usage.
  std::vector<FileExtent> merged;
  for (const FileExtent& extent : extents) {
    if (extent.length == 0) {
      return InvalidArgumentError("list extents must be non-empty");
    }
    // Written without offset + length, which can wrap past 2^64.
    if (extent.length > map.total_bytes() ||
        extent.offset > map.total_bytes() - extent.length) {
      return InvalidArgumentError(
          "extent at " + std::to_string(extent.offset) + " of " +
          std::to_string(extent.length) + " bytes ends past the file (" +
          std::to_string(map.total_bytes()) + " bytes)");
    }
    if (!merged.empty()) {
      const std::uint64_t end = merged.back().offset + merged.back().length;
      if (extent.offset < end) {
        return InvalidArgumentError(
            "list extents must be sorted by offset and non-overlapping");
      }
      if (extent.offset == end) {
        merged.back().length += extent.length;
        continue;
      }
    }
    merged.push_back(extent);
  }
  if (!merged.empty()) {
    const BrickId last_brick =
        (merged.back().offset + merged.back().length - 1) / map.brick_bytes();
    if (last_brick >= dist.num_bricks()) {
      return InvalidArgumentError(
          "distribution covers " + std::to_string(dist.num_bricks()) +
          " bricks but the access reaches brick " + std::to_string(last_brick));
    }
  }
  std::map<BrickId, BrickUsage> usage;
  for (const FileExtent& extent : merged) {
    DPFS_ASSIGN_OR_RETURN(const auto pieces,
                          map.SummarizeByteRange(extent.offset, extent.length));
    for (const auto& [brick, piece] : pieces) {
      BrickUsage& total = usage[brick];
      total.useful_bytes += piece.useful_bytes;
      total.num_runs += piece.num_runs;
      total.fragments += piece.fragments;
    }
  }
  return BuildPlan(map, dist, client, usage, options);
}

Result<IoPlan> PlanCollectiveAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    const std::vector<Region>& regions,
                                    const PlanOptions& options) {
  IoPlan plan;
  plan.clients.reserve(regions.size());
  for (std::size_t client = 0; client < regions.size(); ++client) {
    DPFS_ASSIGN_OR_RETURN(
        ClientPlan client_plan,
        PlanRegionAccess(map, dist, static_cast<std::uint32_t>(client),
                         regions[client], options));
    plan.clients.push_back(std::move(client_plan));
  }
  return plan;
}

}  // namespace dpfs::layout
