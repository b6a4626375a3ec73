// Micro-benchmark of the I/O server's subfile store on Fig 11's linear
// level (§8.1): each of 8 ranks owns a 256-byte column of every 2048-byte
// row, so one rank's combined request to a server is 512 fragments 1792
// bytes apart, spanning 1,046,784 bytes. The store writes such a request as
// one sieved span, one pread and one pwrite under the subfile's lock,
// instead of one pwrite per fragment. Every thread writes its own column of
// the same subfile, as every rank's request to one server does. Rates are
// wall-clock (UseRealTime) fragments per second over all threads.
//
// BM_OneByteFragmentsAPageApart is the sieve rule's worst case: 1-byte
// fragments 4095 bytes apart, so each span reads and writes 1 MiB to put
// down 257 payload bytes.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/temp_dir.h"
#include "server/subfile_store.h"

namespace {

using dpfs::Bytes;
using dpfs::net::WriteFragment;
using dpfs::server::SubfileStore;

constexpr std::uint64_t kRowBytes = 2048;
constexpr std::uint64_t kColumnBytes = 256;
constexpr std::uint64_t kRows = 512;

/// One store for the process, as one server's sessions share theirs; its
/// directory is removed at exit.
SubfileStore& Store() {
  static dpfs::TempDir dir = dpfs::TempDir::Create("dpfs-store-bench").value();
  static SubfileStore store(dir.path());
  return store;
}

void Write(benchmark::State& state, const std::string& subfile,
           const std::vector<WriteFragment>& fragments) {
  Bytes scratch;  // this thread's session buffer
  for (auto _ : state) {
    const dpfs::Status status =
        Store().WriteFragments(subfile, fragments, false, scratch);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fragments.size()));
}

void BM_Fig11LinearColumn(benchmark::State& state) {
  const auto rank = static_cast<std::uint64_t>(state.thread_index()) % 8;
  const Bytes column(kColumnBytes, static_cast<std::uint8_t>(rank + 1));
  std::vector<WriteFragment> fragments;
  for (std::uint64_t row = 0; row < kRows; ++row) {
    fragments.emplace_back(row * kRowBytes + rank * kColumnBytes, column);
  }
  Write(state, "/fig11", fragments);
}
BENCHMARK(BM_Fig11LinearColumn)->Threads(1)->Threads(8)->UseRealTime();

void BM_OneByteFragmentsAPageApart(benchmark::State& state) {
  constexpr std::uint64_t kApart = SubfileStore::kSieveGapLimit - 1;
  constexpr std::uint64_t kFragments =
      1 + (SubfileStore::kMaxSpanBytes - 1) / kApart;  // one full span
  const Bytes bytes(kFragments, 0x5A);
  std::vector<WriteFragment> fragments;
  for (std::uint64_t i = 0; i < kFragments; ++i) {
    fragments.emplace_back(i * kApart, dpfs::ByteSpan(bytes).subspan(i, 1));
  }
  Write(state, "/worst", fragments);
}
BENCHMARK(BM_OneByteFragmentsAPageApart)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
