#include "layout/replication.h"

#include <algorithm>
#include <set>

namespace dpfs::layout {

namespace {

/// Effective per-brick cost for replica placement: round-robin primaries
/// carry no meaningful performance numbers, so replicas of a round-robin
/// file spread uniformly (P = 1 everywhere).
std::vector<std::uint32_t> EffectiveCosts(
    PlacementPolicy policy, const std::vector<std::uint32_t>& performance) {
  if (policy == PlacementPolicy::kRoundRobin) {
    return std::vector<std::uint32_t>(performance.size(), 1);
  }
  return performance;
}

}  // namespace

Result<ReplicatedDistribution> ReplicatedDistribution::Create(
    PlacementPolicy policy, std::uint64_t num_bricks,
    const std::vector<std::uint32_t>& performance, const ReplicationSpec& spec,
    const std::vector<std::uint64_t>& capacity_bricks) {
  if (spec.factor == 0) {
    return InvalidArgumentError("replication factor must be >= 1");
  }
  const std::uint32_t num_servers =
      static_cast<std::uint32_t>(performance.size());
  if (!spec.domains.empty() && spec.domains.size() != performance.size()) {
    return InvalidArgumentError(
        "failure-domain vector must be empty or match server count (" +
        std::to_string(spec.domains.size()) + " domains, " +
        std::to_string(performance.size()) + " servers)");
  }
  // domain_of(k): explicit map, or every server its own domain.
  std::vector<std::uint32_t> domain(num_servers);
  for (std::uint32_t k = 0; k < num_servers; ++k) {
    domain[k] = spec.domains.empty() ? k : spec.domains[k];
  }
  const std::size_t distinct_domains =
      std::set<std::uint32_t>(domain.begin(), domain.end()).size();
  if (spec.factor > distinct_domains) {
    return InvalidArgumentError(
        "replication factor " + std::to_string(spec.factor) + " needs " +
        std::to_string(spec.factor) + " distinct failure domains, have " +
        std::to_string(distinct_domains));
  }

  ReplicatedDistribution out;
  DPFS_ASSIGN_OR_RETURN(
      BrickDistribution primary,
      BrickDistribution::Create(policy, num_bricks, performance,
                                capacity_bricks));
  out.ranks_.push_back(std::move(primary));
  if (spec.factor == 1) return out;

  const std::vector<std::uint32_t> costs = EffectiveCosts(policy, performance);
  // Shared accumulator, seeded with the primary's assignments so replica
  // load fills in around it rather than mirroring it.
  std::vector<std::uint64_t> accumulated(num_servers, 0);
  for (std::uint32_t k = 0; k < num_servers; ++k) {
    accumulated[k] += static_cast<std::uint64_t>(costs[k]) *
                      out.ranks_[0].bricks_on(k).size();
  }
  // Capacity budgets are shared across ranks too: a server's advertised
  // space holds primaries and replicas alike.
  std::vector<std::uint64_t> remaining = capacity_bricks;
  const bool budgeted = policy == PlacementPolicy::kCapacityAware;
  if (budgeted) {
    for (std::uint32_t k = 0; k < num_servers; ++k) {
      const std::uint64_t used = out.ranks_[0].bricks_on(k).size();
      remaining[k] = remaining[k] >= used ? remaining[k] - used : 0;
    }
  }

  for (std::uint32_t r = 1; r < spec.factor; ++r) {
    std::vector<std::vector<BrickId>> server_bricks(num_servers);
    for (std::uint64_t brick = 0; brick < num_bricks; ++brick) {
      // Domains already holding a copy of this brick (earlier ranks).
      std::set<std::uint32_t> used_domains;
      for (std::uint32_t earlier = 0; earlier < r; ++earlier) {
        used_domains.insert(domain[out.ranks_[earlier].server_for(brick)]);
      }
      std::uint32_t best = num_servers;
      for (std::uint32_t k = 0; k < num_servers; ++k) {
        if (used_domains.contains(domain[k])) continue;
        if (budgeted && remaining[k] == 0) continue;
        if (best == num_servers ||
            accumulated[k] + costs[k] < accumulated[best] + costs[best]) {
          best = k;
        }
      }
      if (best == num_servers) {
        return ResourceExhaustedError(
            "no server can hold replica " + std::to_string(r) + " of brick " +
            std::to_string(brick) +
            " (capacity budgets exhausted outside its used failure domains)");
      }
      accumulated[best] += costs[best];
      if (budgeted) --remaining[best];
      server_bricks[best].push_back(brick);
    }
    DPFS_ASSIGN_OR_RETURN(
        BrickDistribution rank_dist,
        BrickDistribution::FromBrickLists(num_bricks,
                                          std::move(server_bricks)));
    out.ranks_.push_back(std::move(rank_dist));
  }
  return out;
}

Result<ReplicatedDistribution> ReplicatedDistribution::FromRanks(
    std::vector<BrickDistribution> ranks) {
  if (ranks.empty()) {
    return InvalidArgumentError("need at least one distribution rank");
  }
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    if (ranks[r].num_bricks() != ranks[0].num_bricks() ||
        ranks[r].num_servers() != ranks[0].num_servers()) {
      return InvalidArgumentError(
          "replica rank " + std::to_string(r) +
          " disagrees with the primary on brick or server count");
    }
  }
  ReplicatedDistribution out;
  out.ranks_ = std::move(ranks);
  return out;
}

Result<ClientPlan> ExpandWritePlan(const ClientPlan& plan,
                                   const ReplicatedDistribution& dist) {
  if (dist.factor() <= 1) return plan;
  if (plan.list_io) {
    return UnimplementedError(
        "write replication does not compose with list-I/O plans");
  }
  ClientPlan expanded = plan;
  expanded.requests.clear();
  for (const ServerRequest& request : plan.requests) {
    expanded.requests.push_back(request);
    for (std::uint32_t r = 1; r < dist.factor(); ++r) {
      DPFS_ASSIGN_OR_RETURN(
          std::vector<ServerRequest> remapped,
          RemapRequestToRank(request, dist.rank(r), r));
      for (ServerRequest& replica_request : remapped) {
        expanded.requests.push_back(std::move(replica_request));
      }
    }
  }
  return expanded;
}

Result<std::vector<ServerRequest>> RemapRequestToRank(
    const ServerRequest& request, const BrickDistribution& rank_dist,
    std::uint32_t rank) {
  if (!request.list_extents.empty()) {
    return UnimplementedError(
        "list-I/O requests cannot be remapped to a replica rank");
  }
  std::vector<ServerRequest> out;
  for (const BrickRequest& brick : request.bricks) {
    if (brick.brick >= rank_dist.num_bricks()) {
      return InvalidArgumentError("brick " + std::to_string(brick.brick) +
                                  " out of range for the replica rank");
    }
    const ServerId server = rank_dist.server_for(brick.brick);
    auto it = std::find_if(
        out.begin(), out.end(),
        [server](const ServerRequest& r) { return r.server == server; });
    if (it == out.end()) {
      ServerRequest fresh;
      fresh.server = server;
      fresh.replica = rank;
      out.push_back(std::move(fresh));
      it = out.end() - 1;
    }
    it->bricks.push_back(brick);
  }
  std::sort(out.begin(), out.end(),
            [](const ServerRequest& a, const ServerRequest& b) {
              return a.server < b.server;
            });
  return out;
}

std::string ReplicaSubfileName(const std::string& subfile,
                               std::uint32_t rank) {
  if (rank == 0) return subfile;
  return subfile + "#r" + std::to_string(rank);
}

}  // namespace dpfs::layout
