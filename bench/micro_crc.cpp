// Micro-benchmark of the frame and WAL checksum: bytes per second of the
// byte-table CRC-32C (the portable fallback) and of Crc32cExtend, which
// runs the CPU's CRC instruction where it has one. Every wire frame is
// checksummed once by its sender and once by its receiver, so this rate
// bounds how fast one connection can move a brick.
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/rng.h"

namespace {

dpfs::Bytes RandomBuffer(std::size_t size) {
  dpfs::SplitMix64 rng(size);
  dpfs::Bytes buffer(size);
  for (std::uint8_t& byte : buffer) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  return buffer;
}

void BM_Crc32cTable(benchmark::State& state) {
  const dpfs::Bytes buffer =
      RandomBuffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpfs::internal::Crc32cExtendTable(0, buffer));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cTable)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32cDispatched(benchmark::State& state) {
  const dpfs::Bytes buffer =
      RandomBuffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpfs::Crc32cExtend(0, buffer));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cDispatched)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
