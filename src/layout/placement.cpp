#include "layout/placement.h"

#include "common/strings.h"

namespace dpfs::layout {

std::string_view PlacementPolicyName(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kGreedy: return "greedy";
    case PlacementPolicy::kCapacityAware: return "capacity-aware";
  }
  return "unknown";
}

Result<PlacementPolicy> ParsePlacementPolicy(std::string_view name) {
  if (EqualsIgnoreCase(name, "round-robin") ||
      EqualsIgnoreCase(name, "roundrobin") || EqualsIgnoreCase(name, "rr")) {
    return PlacementPolicy::kRoundRobin;
  }
  if (EqualsIgnoreCase(name, "greedy")) return PlacementPolicy::kGreedy;
  if (EqualsIgnoreCase(name, "capacity-aware") ||
      EqualsIgnoreCase(name, "capacity")) {
    return PlacementPolicy::kCapacityAware;
  }
  return InvalidArgumentError("unknown placement policy '" +
                              std::string(name) + "'");
}

Status BrickDistribution::Finalize(std::uint64_t num_bricks) {
  brick_slot_.assign(num_bricks, 0);
  std::vector<bool> seen(num_bricks, false);
  for (const std::vector<BrickId>& bricks : server_bricks_) {
    for (std::size_t slot = 0; slot < bricks.size(); ++slot) {
      const BrickId brick = bricks[slot];
      if (brick >= num_bricks) {
        return InvalidArgumentError("brick id " + std::to_string(brick) +
                                    " out of range (" +
                                    std::to_string(num_bricks) + " bricks)");
      }
      if (seen[brick]) {
        return InvalidArgumentError("brick " + std::to_string(brick) +
                                    " assigned to multiple servers");
      }
      seen[brick] = true;
      brick_slot_[brick] = slot;
    }
  }
  for (std::uint64_t brick = 0; brick < num_bricks; ++brick) {
    if (!seen[brick]) {
      return InvalidArgumentError("brick " + std::to_string(brick) +
                                  " not assigned to any server");
    }
  }
  return Status::Ok();
}

Result<BrickDistribution> BrickDistribution::RoundRobin(
    std::uint64_t num_bricks, std::uint32_t num_servers) {
  if (num_servers == 0) {
    return InvalidArgumentError("need at least one server");
  }
  BrickDistribution dist;
  dist.brick_to_server_.resize(num_bricks);
  dist.server_bricks_.resize(num_servers);
  for (std::uint64_t brick = 0; brick < num_bricks; ++brick) {
    const ServerId server = static_cast<ServerId>(brick % num_servers);
    dist.brick_to_server_[brick] = server;
    dist.server_bricks_[server].push_back(brick);
  }
  DPFS_RETURN_IF_ERROR(dist.Finalize(num_bricks));
  return dist;
}

Result<BrickDistribution> BrickDistribution::Greedy(
    std::uint64_t num_bricks, const std::vector<std::uint32_t>& performance) {
  if (performance.empty()) {
    return InvalidArgumentError("need at least one server");
  }
  for (std::size_t k = 0; k < performance.size(); ++k) {
    if (performance[k] == 0) {
      return InvalidArgumentError("server " + std::to_string(k) +
                                  " performance number must be >= 1");
    }
  }
  BrickDistribution dist;
  dist.brick_to_server_.resize(num_bricks);
  dist.server_bricks_.resize(performance.size());
  // Fig 8: A[k] accumulates assigned cost; brick i goes to the k that
  // minimizes A[k] + P[k].
  std::vector<std::uint64_t> accumulated(performance.size(), 0);
  for (std::uint64_t brick = 0; brick < num_bricks; ++brick) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < performance.size(); ++k) {
      if (accumulated[k] + performance[k] <
          accumulated[best] + performance[best]) {
        best = k;
      }
    }
    accumulated[best] += performance[best];
    dist.brick_to_server_[brick] = static_cast<ServerId>(best);
    dist.server_bricks_[best].push_back(brick);
  }
  DPFS_RETURN_IF_ERROR(dist.Finalize(num_bricks));
  return dist;
}

Result<BrickDistribution> BrickDistribution::CapacityAware(
    std::uint64_t num_bricks, const std::vector<std::uint32_t>& performance,
    const std::vector<std::uint64_t>& capacity_bricks) {
  if (performance.empty()) {
    return InvalidArgumentError("need at least one server");
  }
  if (capacity_bricks.size() != performance.size()) {
    return InvalidArgumentError(
        "capacity vector must match server count");
  }
  std::uint64_t total_capacity = 0;
  for (const std::uint64_t capacity : capacity_bricks) {
    total_capacity += capacity;
  }
  if (total_capacity < num_bricks) {
    return ResourceExhaustedError(
        "file needs " + std::to_string(num_bricks) +
        " bricks but servers advertise space for " +
        std::to_string(total_capacity));
  }
  for (std::size_t k = 0; k < performance.size(); ++k) {
    if (performance[k] == 0) {
      return InvalidArgumentError("server " + std::to_string(k) +
                                  " performance number must be >= 1");
    }
  }
  BrickDistribution dist;
  dist.brick_to_server_.resize(num_bricks);
  dist.server_bricks_.resize(performance.size());
  std::vector<std::uint64_t> accumulated(performance.size(), 0);
  std::vector<std::uint64_t> remaining = capacity_bricks;
  for (std::uint64_t brick = 0; brick < num_bricks; ++brick) {
    std::size_t best = performance.size();
    for (std::size_t k = 0; k < performance.size(); ++k) {
      if (remaining[k] == 0) continue;
      if (best == performance.size() ||
          accumulated[k] + performance[k] <
              accumulated[best] + performance[best]) {
        best = k;
      }
    }
    // total_capacity >= num_bricks guarantees a candidate exists.
    accumulated[best] += performance[best];
    --remaining[best];
    dist.brick_to_server_[brick] = static_cast<ServerId>(best);
    dist.server_bricks_[best].push_back(brick);
  }
  DPFS_RETURN_IF_ERROR(dist.Finalize(num_bricks));
  return dist;
}

Result<BrickDistribution> BrickDistribution::Create(
    PlacementPolicy policy, std::uint64_t num_bricks,
    const std::vector<std::uint32_t>& performance,
    const std::vector<std::uint64_t>& capacity_bricks) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return RoundRobin(num_bricks,
                        static_cast<std::uint32_t>(performance.size()));
    case PlacementPolicy::kGreedy:
      return Greedy(num_bricks, performance);
    case PlacementPolicy::kCapacityAware:
      return CapacityAware(num_bricks, performance, capacity_bricks);
  }
  return InvalidArgumentError("unknown placement policy");
}

Result<BrickDistribution> BrickDistribution::FromBrickLists(
    std::uint64_t num_bricks, std::vector<std::vector<BrickId>> server_bricks) {
  // Every brick is listed exactly once (Finalize), so the lists' length
  // bounds num_bricks before it sizes anything: a count from a metadata
  // frame cannot allocate more than the frame listed.
  std::uint64_t listed = 0;
  for (const std::vector<BrickId>& bricks : server_bricks) {
    listed += bricks.size();
  }
  if (listed != num_bricks) {
    return InvalidArgumentError(std::to_string(listed) +
                                " bricks listed for a file of " +
                                std::to_string(num_bricks));
  }
  BrickDistribution dist;
  dist.server_bricks_ = std::move(server_bricks);
  dist.brick_to_server_.resize(num_bricks);
  for (std::size_t server = 0; server < dist.server_bricks_.size(); ++server) {
    for (const BrickId brick : dist.server_bricks_[server]) {
      if (brick < num_bricks) {
        dist.brick_to_server_[brick] = static_cast<ServerId>(server);
      }
    }
  }
  DPFS_RETURN_IF_ERROR(dist.Finalize(num_bricks));
  return dist;
}

std::string BrickDistribution::EncodeBrickList(
    const std::vector<BrickId>& bricks) {
  std::string out;
  for (std::size_t i = 0; i < bricks.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(bricks[i]);
  }
  return out;
}

Result<std::vector<BrickId>> BrickDistribution::DecodeBrickList(
    std::string_view text) {
  std::vector<BrickId> bricks;
  if (TrimWhitespace(text).empty()) return bricks;
  for (const std::string& token : SplitString(text, ',')) {
    DPFS_ASSIGN_OR_RETURN(const std::int64_t value, ParseInt64(token));
    if (value < 0) {
      return InvalidArgumentError("negative brick id in bricklist");
    }
    bricks.push_back(static_cast<BrickId>(value));
  }
  return bricks;
}

}  // namespace dpfs::layout
