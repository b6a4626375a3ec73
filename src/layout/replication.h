// Replica placement and plan expansion for the replication extension
// (docs/REPLICATION.md). Pure math, like the rest of `layout`: both the TCP
// executor and the simulator consume the expanded plans.
//
// A ReplicatedDistribution is R stacked BrickDistributions ("ranks").
// Rank 0 is exactly the primary BrickDistribution::Create output — with
// R = 1 the layout is byte-identical to the unreplicated system. Ranks
// r >= 1 are placed by the same Fig 8 greedy rule, with two constraints:
//   * a brick's R replicas never share a failure domain, and
//   * the cost accumulator A[k] is shared across ranks, so replica load
//     spreads over the whole cluster instead of mirroring the primary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "layout/placement.h"
#include "layout/plan.h"

namespace dpfs::layout {

/// How (and whether) a file is replicated.
struct ReplicationSpec {
  /// Total copies of every brick, primary included. 1 = off (the paper's
  /// semantics and the default).
  std::uint32_t factor = 1;
  /// Failure domain of each server (rack, zone, site...). Empty = every
  /// server is its own domain. A brick's `factor` replicas are placed in
  /// `factor` distinct domains, so losing one domain loses at most one
  /// copy.
  std::vector<std::uint32_t> domains;

  [[nodiscard]] bool replicated() const noexcept { return factor > 1; }

  friend bool operator==(const ReplicationSpec&,
                         const ReplicationSpec&) = default;
};

/// The materialized placement of all R copies of one file.
class ReplicatedDistribution {
 public:
  /// Places rank 0 with BrickDistribution::Create(policy, ...) — unchanged
  /// from the unreplicated path — then each replica rank with the shared-
  /// accumulator greedy rule above. `spec.domains` must be empty or sized
  /// to the server count; fails with kInvalidArgument when `spec.factor`
  /// exceeds the number of distinct failure domains, and with
  /// kResourceExhausted when capacity budgets (kCapacityAware) cannot hold
  /// all R copies.
  static Result<ReplicatedDistribution> Create(
      PlacementPolicy policy, std::uint64_t num_bricks,
      const std::vector<std::uint32_t>& performance,
      const ReplicationSpec& spec,
      const std::vector<std::uint64_t>& capacity_bricks = {});

  /// Rebuilds from per-rank distributions (metadata load). Every rank must
  /// agree on num_bricks and num_servers.
  static Result<ReplicatedDistribution> FromRanks(
      std::vector<BrickDistribution> ranks);

  [[nodiscard]] std::uint32_t factor() const noexcept {
    return static_cast<std::uint32_t>(ranks_.size());
  }
  [[nodiscard]] const BrickDistribution& rank(std::uint32_t r) const {
    return ranks_.at(r);
  }
  [[nodiscard]] const BrickDistribution& primary() const { return ranks_.at(0); }
  [[nodiscard]] const std::vector<BrickDistribution>& ranks() const noexcept {
    return ranks_;
  }

 private:
  std::vector<BrickDistribution> ranks_;
};

/// Expands a write plan to fan every request out to all replica ranks:
/// after each original (rank 0) request, one request per replica rank
/// carrying the same bricks regrouped by that rank's server, with
/// ServerRequest::replica set. With factor 1 the plan is returned
/// unchanged.
Result<ClientPlan> ExpandWritePlan(const ClientPlan& plan,
                                   const ReplicatedDistribution& dist);

/// Regroups one (rank 0) read request's bricks by where they live at
/// `rank` — the failover path's "same bytes, different servers" remap.
/// Requests come back in ascending server order with
/// ServerRequest::replica = rank.
Result<std::vector<ServerRequest>> RemapRequestToRank(
    const ServerRequest& request, const BrickDistribution& rank_dist,
    std::uint32_t rank);

/// The wire/store name of a brick's subfile at a replica rank. `subfile`
/// is the file's subfile id (FileMeta::subfile), fixed at create. Rank 0 is
/// the id itself (byte-identical to the unreplicated system), rank r >= 1
/// appends "#r<r>" so a server holding both a primary and a replica subfile
/// of one file keeps them apart.
std::string ReplicaSubfileName(const std::string& subfile, std::uint32_t rank);

}  // namespace dpfs::layout
