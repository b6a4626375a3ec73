// Request planning: turns (file layout, placement, per-client access) into
// the stream of client→server requests, with or without the paper's request
// combination optimization (§4.2).
//
// The resulting IoPlan is consumed by two executors:
//   * dpfs::client — issues the requests over real TCP and moves real bytes;
//   * dpfs::simnet — replays the request stream against calibrated network
//     and disk models to reproduce the paper's performance figures.
//
// Transfer accounting follows the paper's semantics: a READ fetches whole
// bricks ("only the first two elements of each brick are really useful, the
// second half will be discarded", §3.2), so partially-useful bricks still
// move their full size across the wire. A WRITE sends only the useful bytes
// (the server writes them at the right offsets), which in the paper's
// workloads always covers whole bricks anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "layout/brick_map.h"
#include "layout/placement.h"

namespace dpfs::layout {

enum class IoDirection : std::uint8_t { kRead = 0, kWrite = 1 };

/// One contiguous byte extent of a linear file — the input unit of list I/O
/// planning (a flattened `Datatype` access, already coalesced).
struct FileExtent {
  std::uint64_t offset = 0;  // bytes from the start of the file
  std::uint64_t length = 0;  // bytes

  friend bool operator==(const FileExtent&, const FileExtent&) = default;
};

/// One brick's worth of a request.
struct BrickRequest {
  BrickId brick = 0;
  std::uint64_t useful_bytes = 0;    // bytes the client actually needs
  std::uint64_t transfer_bytes = 0;  // bytes that cross the wire
  std::uint64_t num_runs = 0;        // buffer-side scatter/gather runs
  std::uint64_t fragments = 0;       // wire fragments after run coalescing

  friend bool operator==(const BrickRequest&, const BrickRequest&) = default;
};

/// One client→server message (a combined request carries many bricks; an
/// uncombined one exactly one).
struct ServerRequest {
  ServerId server = 0;
  /// Replica rank this request targets (replication extension,
  /// layout/replication.h). 0 = the primary copy — the only value
  /// unreplicated plans ever carry.
  std::uint32_t replica = 0;
  std::vector<BrickRequest> bricks;

  [[nodiscard]] std::uint64_t transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t useful_bytes() const noexcept;
};

/// The ordered request stream of one client.
struct ClientPlan {
  std::uint32_t client = 0;
  IoDirection direction = IoDirection::kRead;
  /// Read fetch granularity this plan was built with (see PlanOptions).
  bool whole_brick_reads = true;
  /// Simulator only: replay every request concurrently (one dispatch
  /// thread per server) instead of the paper's sequential client loop. The
  /// TCP client always sends them one at a time.
  bool parallel_dispatch = false;
  std::vector<ServerRequest> requests;

  [[nodiscard]] std::size_t num_requests() const noexcept {
    return requests.size();
  }
  [[nodiscard]] std::uint64_t transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t useful_bytes() const noexcept;
};

/// All clients of one collective access.
struct IoPlan {
  std::vector<ClientPlan> clients;

  [[nodiscard]] std::size_t total_requests() const noexcept;
  [[nodiscard]] std::uint64_t total_transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_useful_bytes() const noexcept;
};

struct PlanOptions {
  IoDirection direction = IoDirection::kRead;
  /// §4.2 request combination: all bricks a client needs from one server are
  /// coalesced into a single request.
  bool combine = false;
  /// §4.2 scheduling: with combination, client c issues its combined
  /// requests starting at server (c mod S) so clients fan out over distinct
  /// servers instead of stampeding server 0 together.
  bool rotate_start = true;
  /// The paper's READ semantics: fetch whole bricks and discard the unused
  /// part (§3.2). Set false for *sieve reads*, a DPFS extension that
  /// transfers only the useful runs — trading per-fragment overhead for
  /// wire efficiency (see bench/ablation_sieve_reads).
  bool whole_brick_reads = true;
  /// Simulator only: the design alternative of dispatching the client's
  /// requests concurrently (see bench/ablation_parallel_dispatch). No client
  /// path reads it.
  bool parallel_dispatch = false;
};

/// Plans one client's access to an element region of the file.
Result<ClientPlan> PlanRegionAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    std::uint32_t client, const Region& region,
                                    const PlanOptions& options);

/// Plans one client's access to a raw byte extent (linear files): the
/// one-extent case of PlanListAccess. An empty extent is an empty plan.
Result<ClientPlan> PlanByteAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client, std::uint64_t offset,
                                  std::uint64_t length,
                                  const PlanOptions& options);

/// Plans one client's access to a set of byte extents of a linear file (a
/// flattened noncontiguous `Datatype` access) as one ordinary plan: each
/// touched brick appears once, with its usage summed over the extents, so
/// `combine` gives one request per server for the whole access and every
/// option means what it means for a region. Extents must be non-empty,
/// sorted by offset and non-overlapping; touching extents merge.
Result<ClientPlan> PlanListAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client,
                                  const std::vector<FileExtent>& extents,
                                  const PlanOptions& options);

/// Plans a collective access: client i accesses regions[i].
Result<IoPlan> PlanCollectiveAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    const std::vector<Region>& regions,
                                    const PlanOptions& options);

}  // namespace dpfs::layout
