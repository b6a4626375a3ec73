// Shared workload builders for the figure-reproduction harnesses.
//
// Each harness builds the paper's workload with the *real* DPFS planner
// (layout::PlanCollectiveAccess et al.) and replays the resulting request
// stream on simnet's storage-class models (see DESIGN.md for why this
// substitution preserves the figures' shape).
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "layout/hpf.h"
#include "layout/plan.h"
#include "layout/replication.h"
#include "simnet/replay.h"

namespace dpfs::bench {

/// The six bars of Fig 11/12.
enum class Variant {
  kLinear,
  kCombinedLinear,
  kMultidim,
  kCombinedMultidim,
  kArray,
  kCombinedArray,
};

inline const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kLinear: return "Linear";
    case Variant::kCombinedLinear: return "Combined Linear";
    case Variant::kMultidim: return "Multi-dim";
    case Variant::kCombinedMultidim: return "Combined Multi-dim";
    case Variant::kArray: return "Array";
    case Variant::kCombinedArray: return "Combined Array";
  }
  return "?";
}

inline bool VariantCombined(Variant variant) {
  return variant == Variant::kCombinedLinear ||
         variant == Variant::kCombinedMultidim ||
         variant == Variant::kCombinedArray;
}

/// The Fig 11/12 workload: a square byte array accessed (*,BLOCK) by
/// `compute_nodes` clients over `io_nodes` servers.
struct FileLevelConfig {
  std::uint32_t compute_nodes = 8;
  std::uint32_t io_nodes = 4;
  std::uint64_t array_dim = 32 * 1024;   // 32K x 32K bytes, as in §8.1
  std::uint64_t brick_bytes = 64 * 1024; // linear striping unit
  std::uint64_t md_tile = 256;           // multidim striping unit edge
};

/// Builds the collective (*,BLOCK) access plan for one variant.
inline Result<layout::IoPlan> BuildFileLevelPlan(const FileLevelConfig& config,
                                                 Variant variant,
                                                 layout::IoDirection direction) {
  using namespace dpfs::layout;
  const Shape array = {config.array_dim, config.array_dim};
  const HpfPattern star_block = HpfPattern::Parse("(*,BLOCK)").value();
  ProcessGrid grid;
  grid.grid = {config.compute_nodes};

  BrickMap map;
  switch (variant) {
    case Variant::kLinear:
    case Variant::kCombinedLinear: {
      DPFS_ASSIGN_OR_RETURN(
          map, BrickMap::LinearArray(array, 1, config.brick_bytes));
      break;
    }
    case Variant::kMultidim:
    case Variant::kCombinedMultidim: {
      DPFS_ASSIGN_OR_RETURN(
          map,
          BrickMap::Multidim(array, {config.md_tile, config.md_tile}, 1));
      break;
    }
    case Variant::kArray:
    case Variant::kCombinedArray: {
      DPFS_ASSIGN_OR_RETURN(map,
                            BrickMap::Array(array, star_block, grid, 1));
      break;
    }
  }
  DPFS_ASSIGN_OR_RETURN(
      BrickDistribution dist,
      BrickDistribution::RoundRobin(map.num_bricks(), config.io_nodes));

  DPFS_ASSIGN_OR_RETURN(
      const std::vector<Region> chunks,
      AllChunks(array, star_block, grid));

  PlanOptions options;
  options.direction = direction;
  options.combine = VariantCombined(variant);
  return PlanCollectiveAccess(map, dist, chunks, options);
}

/// The Fig 13/14 workload: a linear file where client c reads/writes its own
/// contiguous block, striped over heterogeneous servers by `policy`.
struct StripingAlgConfig {
  std::uint32_t compute_nodes = 8;
  std::uint32_t io_nodes = 8;
  std::uint64_t bytes_per_client = 32ull << 20;  // 32 MB each
  std::uint64_t brick_bytes = 64 * 1024;
  std::vector<std::uint32_t> performance;  // per server (§4.1 numbers)
};

inline Result<layout::IoPlan> BuildStripingAlgPlan(
    const StripingAlgConfig& config, layout::PlacementPolicy policy,
    bool combine, layout::IoDirection direction) {
  using namespace dpfs::layout;
  const std::uint64_t total =
      config.bytes_per_client * config.compute_nodes;
  DPFS_ASSIGN_OR_RETURN(const BrickMap map,
                        BrickMap::Linear(total, config.brick_bytes));
  DPFS_ASSIGN_OR_RETURN(
      const BrickDistribution dist,
      BrickDistribution::Create(policy, map.num_bricks(),
                                config.performance));
  PlanOptions options;
  options.direction = direction;
  options.combine = combine;
  IoPlan plan;
  for (std::uint32_t c = 0; c < config.compute_nodes; ++c) {
    DPFS_ASSIGN_OR_RETURN(
        ClientPlan client,
        PlanByteAccess(map, dist, c, c * config.bytes_per_client,
                       config.bytes_per_client, options));
    plan.clients.push_back(std::move(client));
  }
  return plan;
}

// --- noncontiguous access (docs/NONCONTIGUOUS_IO.md) -----------------------

/// How a noncontiguous (vector/subarray) access is served on the wire.
enum class NoncontigStrategy {
  kWholeBrick,  // fetch every touched brick whole, discard the holes
  kSieve,       // one contiguous read of the bounding span, extract client-side
  kListIo,      // one combined sieve plan: only the listed bytes cross the wire
};

inline const char* NoncontigStrategyName(NoncontigStrategy strategy) {
  switch (strategy) {
    case NoncontigStrategy::kWholeBrick: return "whole-brick";
    case NoncontigStrategy::kSieve: return "sieve";
    case NoncontigStrategy::kListIo: return "list I/O";
  }
  return "?";
}

/// An MPI vector access per client: `count` blocks of `block` bytes, one
/// every `stride` bytes, clients tiled back to back through a shared linear
/// file. block == stride degenerates to a contiguous access; a 2-D subarray
/// of an N-wide row-major array is the special case block = cols, stride = N.
struct NoncontigConfig {
  std::uint32_t clients = 8;
  std::uint32_t io_nodes = 4;
  std::uint64_t brick_bytes = 64 * 1024;
  std::uint64_t count = 1024;
  std::uint64_t block = 512;
  std::uint64_t stride = 8 * 1024;
};

/// Builds the plan all `clients` run concurrently under one strategy.
inline Result<layout::IoPlan> BuildNoncontigPlan(const NoncontigConfig& config,
                                                 NoncontigStrategy strategy,
                                                 layout::IoDirection direction =
                                                     layout::IoDirection::kRead) {
  using namespace layout;
  const std::uint64_t span = config.count * config.stride;
  DPFS_ASSIGN_OR_RETURN(
      const BrickMap map,
      BrickMap::Linear(span * config.clients, config.brick_bytes));
  DPFS_ASSIGN_OR_RETURN(
      const BrickDistribution dist,
      BrickDistribution::RoundRobin(map.num_bricks(), config.io_nodes));
  PlanOptions options;
  options.direction = direction;
  options.combine = true;
  IoPlan plan;
  for (std::uint32_t c = 0; c < config.clients; ++c) {
    const std::uint64_t base = static_cast<std::uint64_t>(c) * span;
    ClientPlan client;
    switch (strategy) {
      case NoncontigStrategy::kListIo: {
        std::vector<FileExtent> extents;
        extents.reserve(config.count);
        for (std::uint64_t i = 0; i < config.count; ++i) {
          extents.push_back({base + i * config.stride, config.block});
        }
        PlanOptions sieve = options;
        sieve.whole_brick_reads = false;
        DPFS_ASSIGN_OR_RETURN(client,
                              PlanListAccess(map, dist, c, extents, sieve));
        break;
      }
      case NoncontigStrategy::kSieve: {
        // Data sieving: the whole bounding span, holes included, as one
        // contiguous transfer (the hole tail after the last block is not
        // fetched).
        const std::uint64_t bound =
            (config.count - 1) * config.stride + config.block;
        DPFS_ASSIGN_OR_RETURN(
            client, PlanByteAccess(map, dist, c, base, bound, options));
        break;
      }
      case NoncontigStrategy::kWholeBrick: {
        // One plan per block, merged by server: every touched brick crosses
        // whole, once. (For writes this models read-modify-write of each
        // brick, the no-list fallback.)
        PlanOptions whole = options;
        whole.whole_brick_reads = true;
        std::map<ServerId, ServerRequest> grouped;
        for (std::uint64_t i = 0; i < config.count; ++i) {
          DPFS_ASSIGN_OR_RETURN(
              const ClientPlan piece,
              PlanByteAccess(map, dist, c, base + i * config.stride,
                             config.block, whole));
          for (const ServerRequest& request : piece.requests) {
            ServerRequest& bucket = grouped[request.server];
            bucket.server = request.server;
            for (const BrickRequest& brick : request.bricks) {
              if (!bucket.bricks.empty() &&
                  bucket.bricks.back().brick == brick.brick) {
                bucket.bricks.back().useful_bytes += brick.useful_bytes;
                bucket.bricks.back().num_runs += brick.num_runs;
              } else {
                BrickRequest whole_brick = brick;
                whole_brick.transfer_bytes = map.brick_fetch_bytes(brick.brick);
                whole_brick.fragments = 1;
                bucket.bricks.push_back(whole_brick);
              }
            }
          }
        }
        client.client = c;
        client.direction = direction;
        client.whole_brick_reads = true;
        for (auto& [server, request] : grouped) {
          client.requests.push_back(std::move(request));
        }
        break;
      }
    }
    plan.clients.push_back(std::move(client));
  }
  return plan;
}

// --- replication (docs/REPLICATION.md) -------------------------------------

/// The degraded-throughput workload (bench/micro_degraded): Fig-13-style
/// per-client contiguous blocks over uniform servers, replicated at
/// `spec.factor` with the shared-accumulator greedy rule.
struct ReplicationBenchConfig {
  std::uint32_t compute_nodes = 8;
  std::uint32_t io_nodes = 8;
  std::uint64_t bytes_per_client = 8ull << 20;
  std::uint64_t brick_bytes = 64 * 1024;
  std::vector<std::uint32_t> performance;  // per server (§4.1 numbers)
  layout::ReplicationSpec spec;            // factor + failure domains
  /// §4.2 request combination. Off = one request per brick, the
  /// latency-sensitive regime (bench/micro_degraded's WAN sweep).
  bool combine = true;
};

/// A replicated file's layout: the brick map plus all R placement ranks.
struct ReplicatedWorkload {
  layout::BrickMap map;
  layout::ReplicatedDistribution dist;
};

inline Result<ReplicatedWorkload> BuildReplicatedWorkload(
    const ReplicationBenchConfig& config) {
  using namespace layout;
  const std::uint64_t total =
      config.bytes_per_client * config.compute_nodes;
  DPFS_ASSIGN_OR_RETURN(BrickMap map,
                        BrickMap::Linear(total, config.brick_bytes));
  DPFS_ASSIGN_OR_RETURN(
      ReplicatedDistribution dist,
      ReplicatedDistribution::Create(PlacementPolicy::kGreedy,
                                     map.num_bricks(), config.performance,
                                     config.spec));
  return ReplicatedWorkload{std::move(map), std::move(dist)};
}

/// The collective plan all clients run: each accesses its own contiguous
/// block (combined requests). Writes against a replicated layout are
/// expanded to all ranks — exactly what the executor ships.
inline Result<layout::IoPlan> BuildReplicatedPlan(
    const ReplicationBenchConfig& config, const ReplicatedWorkload& workload,
    layout::IoDirection direction) {
  using namespace layout;
  PlanOptions options;
  options.direction = direction;
  options.combine = config.combine;
  IoPlan plan;
  for (std::uint32_t c = 0; c < config.compute_nodes; ++c) {
    DPFS_ASSIGN_OR_RETURN(
        ClientPlan client,
        PlanByteAccess(workload.map, workload.dist.primary(), c,
                       c * config.bytes_per_client, config.bytes_per_client,
                       options));
    if (direction == IoDirection::kWrite &&
        workload.dist.factor() > 1) {
      DPFS_ASSIGN_OR_RETURN(client,
                            ExpandWritePlan(client, workload.dist));
    }
    plan.clients.push_back(std::move(client));
  }
  return plan;
}

/// The failover path's plan shape: every (rank 0) read request that named
/// `dead` is regrouped onto the rank-1 replicas, the rest stay primary —
/// same bytes, surviving servers only.
inline Result<layout::IoPlan> DegradeReadPlan(
    const layout::IoPlan& plan, const ReplicatedWorkload& workload,
    layout::ServerId dead) {
  using namespace layout;
  IoPlan out;
  for (const ClientPlan& client : plan.clients) {
    ClientPlan degraded = client;
    degraded.requests.clear();
    for (const ServerRequest& request : client.requests) {
      if (request.server != dead) {
        degraded.requests.push_back(request);
        continue;
      }
      DPFS_ASSIGN_OR_RETURN(
          std::vector<ServerRequest> remapped,
          RemapRequestToRank(request, workload.dist.rank(1), 1));
      for (ServerRequest& r : remapped) {
        degraded.requests.push_back(std::move(r));
      }
    }
    out.clients.push_back(std::move(degraded));
  }
  return out;
}

inline std::vector<simnet::StorageClassModel> UniformServers(
    const simnet::StorageClassModel& model, std::uint32_t count) {
  return std::vector<simnet::StorageClassModel>(count, model);
}

/// Half class-1, half class-3, as in Fig 13/14.
inline std::vector<simnet::StorageClassModel> HalfClass1HalfClass3(
    std::uint32_t count) {
  std::vector<simnet::StorageClassModel> servers;
  servers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    servers.push_back(i < count / 2 ? simnet::Class1() : simnet::Class3());
  }
  return servers;
}

/// Replays and returns bandwidth in MB/s, aborting the harness on error
/// (benchmarks have no meaningful recovery path).
inline simnet::ReplayResult MustReplay(
    const layout::IoPlan& plan,
    const std::vector<simnet::StorageClassModel>& servers) {
  Result<simnet::ReplayResult> result = simnet::Replay(plan, servers);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace dpfs::bench
