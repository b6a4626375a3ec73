#include "simnet/replay.h"

#include <algorithm>
#include <queue>

namespace dpfs::simnet {
namespace {

/// A serial FIFO resource (a server's disk, a server's link, or the shared
/// compute-side uplink).
struct FifoResource {
  double free_at = 0;
};

/// One stage of a request's pipeline through the resources.
struct StageSpec {
  FifoResource* resource = nullptr;  // nullptr = stage skipped
  double service = 0;                // busy time on the resource
  double head = 0;                   // time until the first streamed chunk
                                     // is available to the next stage
};

struct Event {
  double time = 0;
  std::uint64_t seq = 0;
  std::uint32_t client = 0;
  std::size_t request_index = 0;
  std::size_t stage = 0;      // stage about to be *entered*
  double prev_end = 0;        // when the previous stage finishes entirely

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct ServerState {
  FifoResource disk;
  FifoResource link;
};

/// Fragments in one request: whole-brick reads fetch one fragment per
/// brick; sieve reads and writes move the coalesced brick-space fragments.
std::uint64_t RequestFragments(const layout::ServerRequest& request,
                               const layout::ClientPlan& client) {
  if (client.direction == layout::IoDirection::kRead &&
      client.whole_brick_reads) {
    return request.bricks.size();
  }
  std::uint64_t fragments = 0;
  for (const layout::BrickRequest& brick : request.bricks) {
    fragments += std::max<std::uint64_t>(1, brick.fragments);
  }
  return fragments;
}

}  // namespace

Result<ReplayResult> Replay(const layout::IoPlan& plan,
                            const std::vector<StorageClassModel>& servers,
                            const ReplayOptions& options) {
  for (const layout::ClientPlan& client : plan.clients) {
    for (const layout::ServerRequest& request : client.requests) {
      if (request.server >= servers.size()) {
        return InvalidArgumentError(
            "plan references server " + std::to_string(request.server) +
            " but only " + std::to_string(servers.size()) + " are modeled");
      }
    }
  }

  ReplayResult result;
  result.client_finish_s.assign(plan.clients.size(), 0.0);
  result.total_requests = plan.total_requests();
  result.transfer_bytes = plan.total_transfer_bytes();
  result.useful_bytes = plan.total_useful_bytes();

  std::vector<ServerState> server_state(servers.size());
  FifoResource client_uplink;  // shared by every compute node
  const bool model_uplink = options.client_uplink_bytes_per_s > 0;

  // Builds the stage pipeline of one request. Reads flow
  // disk → server link → [shared uplink]; writes flow
  // [shared uplink] → server link → disk.
  const auto build_stages = [&](const layout::ClientPlan& client,
                                const layout::ServerRequest& request,
                                StageSpec out[3]) {
    const StorageClassModel& model = servers[request.server];
    ServerState& state = server_state[request.server];
    const double bytes = static_cast<double>(request.transfer_bytes());
    const std::uint64_t fragments =
        std::max<std::uint64_t>(1, RequestFragments(request, client));
    const double disk_service =
        model.disk_overhead_s + bytes / model.disk_bytes_per_s +
        static_cast<double>(fragments - 1) * model.fragment_overhead_s;
    const double link_service = bytes / model.link_bytes_per_s;
    const double chunk = std::min(bytes, model.stream_chunk_bytes);

    StageSpec disk;
    disk.resource = &state.disk;
    disk.service = disk_service;
    disk.head = model.disk_overhead_s + chunk / model.disk_bytes_per_s;

    StageSpec link;
    link.resource = &state.link;
    link.service = link_service;
    link.head = chunk / model.link_bytes_per_s;

    StageSpec uplink;
    uplink.resource = model_uplink ? &client_uplink : nullptr;
    uplink.service =
        model_uplink ? bytes / options.client_uplink_bytes_per_s : 0;
    uplink.head =
        model_uplink ? chunk / options.client_uplink_bytes_per_s : 0;

    if (client.direction == layout::IoDirection::kRead) {
      out[0] = disk;
      out[1] = link;
      out[2] = uplink;
    } else {
      out[0] = uplink;
      out[1] = link;
      out[2] = disk;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t seq = 0;

  const auto issue = [&](std::uint32_t c, std::size_t request_index,
                         double at) {
    const layout::ClientPlan& client = plan.clients[c];
    const StorageClassModel& model =
        servers[client.requests[request_index].server];
    queue.push(Event{at + options.client_overhead_s + model.link_latency_s,
                     seq++, c, request_index, 0, 0.0});
  };

  for (std::uint32_t c = 0; c < plan.clients.size(); ++c) {
    const layout::ClientPlan& client = plan.clients[c];
    if (client.requests.empty()) continue;
    if (client.parallel_dispatch) {
      // The design alternative that bench/ablation_parallel_dispatch models
      // (the TCP client has no such mode): the client hands every
      // (combined) request to a dispatch thread at once instead of walking
      // them sequentially.
      for (std::size_t r = 0; r < client.requests.size(); ++r) {
        issue(c, r, 0.0);
      }
    } else {
      issue(c, 0, 0.0);
    }
  }

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    const layout::ClientPlan& client = plan.clients[event.client];
    const layout::ServerRequest& request =
        client.requests[event.request_index];
    const StorageClassModel& model = servers[request.server];

    StageSpec stages[3];
    build_stages(client, request, stages);

    if (event.stage < 3) {
      // Find the next real stage (skipped stages pass straight through).
      std::size_t s = event.stage;
      while (s < 3 && stages[s].resource == nullptr) ++s;
      if (s < 3) {
        const StageSpec& stage = stages[s];
        const double start = std::max(event.time, stage.resource->free_at);
        // A streaming stage cannot finish before its producer has finished.
        const double end =
            std::max(start + stage.service, event.prev_end);
        stage.resource->free_at = end;
        // Is this the last real stage of the pipeline?
        std::size_t next = s + 1;
        while (next < 3 && stages[next].resource == nullptr) ++next;
        if (next < 3) {
          const double head = std::min(start + stage.head, end);
          queue.push(Event{head, seq++, event.client, event.request_index,
                           s + 1, end});
        } else {
          // Reply/ack latency, then completion.
          queue.push(Event{end + model.link_latency_s, seq++, event.client,
                           event.request_index, 3, end});
        }
        continue;
      }
      // Degenerate request with no real stages at all.
      queue.push(Event{event.prev_end + model.link_latency_s, seq++,
                       event.client, event.request_index, 3,
                       event.prev_end});
      continue;
    }

    // Stage 3: request complete.
    result.client_finish_s[event.client] =
        std::max(result.client_finish_s[event.client], event.time);
    if (!client.parallel_dispatch) {
      const std::size_t next = event.request_index + 1;
      if (next < client.requests.size()) {
        issue(event.client, next, event.time);
      }
    }
  }

  for (const double finish : result.client_finish_s) {
    result.makespan_s = std::max(result.makespan_s, finish);
  }
  return result;
}

}  // namespace dpfs::simnet
