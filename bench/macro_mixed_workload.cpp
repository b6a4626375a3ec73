// Macro stress bench on real hardware: a live cluster, many client threads,
// a random mix of region reads and writes on a shared multidim file —
// the full stack (planner → pool → TCP → fd-cached subfiles) under
// concurrency, with data verification at the end.
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "common/options.h"
#include "common/strings.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dpfs.h"

int main(int argc, char** argv) {
  using namespace dpfs;
  const Options opts = Options::Parse(argc, argv).value();
  const auto clients = static_cast<std::uint32_t>(opts.GetInt("clients", 8));
  const auto servers = static_cast<std::uint32_t>(opts.GetInt("servers", 4));
  const auto dim = static_cast<std::uint64_t>(opts.GetInt("dim", 512));
  const auto ops = static_cast<int>(opts.GetInt("ops", 200));

  core::ClusterOptions cluster_options;
  cluster_options.num_servers = servers;
  auto cluster = core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = cluster->fs();

  client::CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {dim, dim};
  create.brick_shape = {dim / 8, dim / 8};
  auto handle = fs->Create("/stress.dpfs", create);
  if (!handle.ok()) {
    std::fprintf(stderr, "create: %s\n", handle.status().ToString().c_str());
    return 1;
  }
  // Seed the file so reads have defined contents.
  Bytes zero(dim * dim, 0);
  (void)fs->WriteRegion(*handle, {{0, 0}, {dim, dim}}, zero);

  std::printf("=== Macro: mixed random region I/O over real TCP ===\n");
  std::printf("%u clients x %d ops on a %llu x %llu multidim file, "
              "%u servers\n",
              clients, ops, static_cast<unsigned long long>(dim),
              static_cast<unsigned long long>(dim), servers);

  std::atomic<std::uint64_t> bytes_moved{0};
  std::atomic<int> failures{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SplitMix64 rng(1000 + c);
      client::FileHandle h = fs->Open("/stress.dpfs").value();
      h.client_id = c;
      Bytes buffer;
      for (int op = 0; op < ops; ++op) {
        layout::Region region;
        region.lower = {rng.NextBelow(dim), rng.NextBelow(dim)};
        region.extent = {1 + rng.NextBelow(dim - region.lower[0]),
                         1 + rng.NextBelow(dim - region.lower[1])};
        buffer.resize(region.num_elements());
        client::IoOptions io;
        io.combine = rng.NextBelow(4) != 0;  // mostly combined
        Status status;
        if (rng.NextBelow(2) == 0) {
          for (std::uint8_t& b : buffer) {
            b = static_cast<std::uint8_t>(rng.NextU64());
          }
          status = fs->WriteRegion(h, region, buffer, io);
        } else {
          status = fs->ReadRegion(h, region, buffer, io);
        }
        if (!status.ok()) {
          failures.fetch_add(1);
          return;
        }
        bytes_moved.fetch_add(buffer.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();

  if (failures.load() != 0) {
    std::fprintf(stderr, "FAILED: %d client threads hit errors\n",
                 failures.load());
    return 1;
  }
  const std::uint64_t server_requests =
      metrics::GetCounter("io_server.requests.read").value() +
      metrics::GetCounter("io_server.requests.write").value();
  std::printf("moved %s in %.2f s  (%.1f MB/s application bytes, "
              "%llu server requests)\n",
              FormatByteSize(bytes_moved.load()).c_str(), seconds,
              static_cast<double>(bytes_moved.load()) / (1 << 20) / seconds,
              static_cast<unsigned long long>(server_requests));

  // Verification: a full read through a fresh handle must succeed and agree
  // between combined and uncombined paths.
  Bytes a(dim * dim);
  Bytes b(dim * dim);
  client::IoOptions combined;
  combined.combine = true;
  client::IoOptions general;
  general.combine = false;
  client::FileHandle verify = fs->Open("/stress.dpfs").value();
  if (!fs->ReadRegion(verify, {{0, 0}, {dim, dim}}, a, combined).ok() ||
      !fs->ReadRegion(verify, {{0, 0}, {dim, dim}}, b, general).ok() ||
      a != b) {
    std::fprintf(stderr, "FAILED: post-stress verification mismatch\n");
    return 1;
  }
  std::printf("post-stress verification: combined and general reads agree\n");
  // The macro bench already drove a real cluster, so the registry is hot;
  // print it directly (no epilogue probe needed).
  std::printf("\n--- metrics snapshot (docs/OBSERVABILITY.md) ---\n%s"
              "--- end metrics snapshot ---\n",
              metrics::Registry::Global().TextSnapshot().c_str());
  return 0;
}
