// Micro-benchmark: noncontiguous access served three ways — whole-brick
// fetches, data sieving (one bounding-span transfer), and list I/O (one
// combined plan whose read and write fragments carry only the listed
// bytes) — over the PVFS list-I/O paper's vector and subarray patterns
// (Ching et al., docs/NONCONTIGUOUS_IO.md).
//
// The sweep varies access density (block/stride). Dense patterns favour
// sieving: the holes are small, and one contiguous transfer amortizes the
// per-fragment disk cost list I/O pays. Sparse patterns favour list I/O:
// the listed extents shrink while the sieve span does not. The crossover
// (recorded in EXPERIMENTS.md) falls where the extra hole bytes cost as
// much as one fragment seek per block.
#include <cstdio>

#include "bench/workloads.h"

namespace {

void PrintRow(const dpfs::bench::NoncontigConfig& config,
              const std::vector<dpfs::simnet::StorageClassModel>& servers) {
  using namespace dpfs::bench;
  double bw[3] = {};
  std::uint64_t wire[3] = {};
  for (const NoncontigStrategy strategy :
       {NoncontigStrategy::kWholeBrick, NoncontigStrategy::kSieve,
        NoncontigStrategy::kListIo}) {
    const auto plan = BuildNoncontigPlan(config, strategy);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   plan.status().ToString().c_str());
      std::abort();
    }
    const auto result = MustReplay(plan.value(), servers);
    const int i = static_cast<int>(strategy);
    // Bandwidth over *useful* bytes: every strategy delivers the same
    // application payload, so useful-byte bandwidth is the fair metric.
    bw[i] = static_cast<double>(config.clients * config.count *
                                config.block) /
            (1024.0 * 1024.0) / result.makespan_s;
    wire[i] = result.transfer_bytes;
  }
  const double density = static_cast<double>(config.block) /
                         static_cast<double>(config.stride);
  std::printf("%8llu %8llu %8.3f %12.2f %12.2f %12.2f %10.1fx %9.1f%%\n",
              static_cast<unsigned long long>(config.block),
              static_cast<unsigned long long>(config.stride), density,
              bw[0], bw[1], bw[2], bw[2] / bw[0],
              100.0 * (1.0 - static_cast<double>(wire[2]) /
                                 static_cast<double>(wire[1])));
}

}  // namespace

int main() {
  using namespace dpfs::bench;
  const auto servers = UniformServers(dpfs::simnet::Class1(), 4);

  std::printf("=== Micro: noncontiguous access — whole-brick vs sieve vs "
              "list I/O ===\n");
  std::printf("8 clients, 4 class-1 servers, 64 KB bricks; useful-byte "
              "MB/s\n\n");

  std::printf("-- vector pattern: 1024 blocks of 512 B, stride swept --\n");
  std::printf("%8s %8s %8s %12s %12s %12s %10s %9s\n", "block", "stride",
              "density", "whole-brick", "sieve", "list I/O", "vs-whole",
              "wire-saved");
  for (const std::uint64_t stride :
       {512ull, 1024ull, 2048ull, 4096ull, 8192ull, 16384ull, 32768ull}) {
    NoncontigConfig config;
    config.count = 1024;
    config.block = 512;
    config.stride = stride;
    PrintRow(config, servers);
  }

  std::printf("\n-- subarray pattern: 1024x1024 tile of an 8192-wide "
              "row-major byte array --\n");
  std::printf("%8s %8s %8s %12s %12s %12s %10s %9s\n", "block", "stride",
              "density", "whole-brick", "sieve", "list I/O", "vs-whole",
              "wire-saved");
  {
    NoncontigConfig config;
    config.count = 1024;   // rows of the tile
    config.block = 1024;   // tile columns (bytes)
    config.stride = 8192;  // full array row
    PrintRow(config, servers);
  }

  std::printf("\n(sieve reads the bounding span holes included; list I/O "
              "moves only listed bytes\n but pays one disk fragment per "
              "wire extent — the density sweep shows the crossover)\n");
  return 0;
}
