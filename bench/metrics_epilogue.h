// Metrics snapshot epilogue for the bench harnesses.
//
// The figure numbers come from simnet replay (pure simulation, no sockets),
// which exercises the planner but none of the runtime hot paths. To make
// every bench run end with a *live* metrics snapshot — nonzero io_server
// per-opcode histograms, client request counters, metadb latencies — the
// epilogue drives a small real workload through an in-process LocalCluster
// (real TCP on loopback, real subfile I/O, real metadata transactions) and
// then prints the process-wide registry. How to read the output:
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdio>
#include <numeric>

#include "common/metrics.h"
#include "core/dpfs.h"

namespace dpfs::bench {

/// Runs a write and a read against a 2-server cluster, then prints the
/// global metrics text snapshot between marker lines.
inline void PrintMetricsEpilogue() {
  const auto fail = [](const Status& status) {
    std::fprintf(stderr, "metrics epilogue workload failed: %s\n",
                 status.ToString().c_str());
  };

  {
    core::ClusterOptions options;
    options.num_servers = 2;
    Result<std::unique_ptr<core::LocalCluster>> cluster =
        core::LocalCluster::Start(std::move(options));
    if (!cluster.ok()) {
      fail(cluster.status());
      return;
    }
    const std::shared_ptr<client::FileSystem> fs = cluster.value()->fs();

    client::CreateOptions create;
    create.total_bytes = 1ull << 20;
    create.brick_bytes = 64 * 1024;
    Result<client::FileHandle> handle =
        fs->Create("/bench_metrics_probe.bin", create);
    if (!handle.ok()) {
      fail(handle.status());
      return;
    }
    Bytes data(create.total_bytes);
    std::iota(data.begin(), data.end(), 0);
    Bytes readback(create.total_bytes);
    Status status = fs->WriteBytes(*handle, 0, data, {}, nullptr);
    if (status.ok()) status = fs->ReadBytes(*handle, 0, readback);
    if (!status.ok()) {
      fail(status);
      return;
    }
  }  // cluster stops: session threads join before the snapshot is read

  std::printf("\n--- metrics snapshot (live LocalCluster probe; "
              "docs/OBSERVABILITY.md) ---\n");
  std::printf("%s", metrics::Registry::Global().TextSnapshot().c_str());
  std::printf("--- end metrics snapshot ---\n");
}

}  // namespace dpfs::bench
