// Unit tests for the metrics registry (common/metrics.h): instrument
// semantics, the text exposition format, and multi-threaded updates (the
// latter doubles as the TSan witness for the lock-free hot paths).
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace dpfs::metrics {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(10);
  gauge.Add(5);
  gauge.Sub(20);
  EXPECT_EQ(gauge.value(), -5);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram histogram;
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.p50, 0u);
  EXPECT_EQ(snap.p99, 0u);
}

TEST(HistogramTest, CountSumMaxAreExact) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(100);
  histogram.Observe(7);
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 107u);
  EXPECT_EQ(snap.max, 100u);
}

TEST(HistogramTest, QuantilesBracketedByBuckets) {
  // 100 observations of value 1000 (bucket upper bound 1023): every
  // quantile must come back in [1000, 1023] — within one power-of-two
  // bucket of the true value, clamped by max.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Observe(1000);
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.p50, 1000u);  // clamped to max
  EXPECT_EQ(snap.p95, 1000u);
  EXPECT_EQ(snap.p99, 1000u);
  EXPECT_EQ(snap.max, 1000u);
}

TEST(HistogramTest, QuantileOrderingAcrossSpread) {
  // 90 fast (value 8) + 10 slow (value 4096): p50 must report fast, p99
  // must land in the slow bucket (upper bound 8191, clamped to max 4096).
  Histogram histogram;
  for (int i = 0; i < 90; ++i) histogram.Observe(8);
  for (int i = 0; i < 10; ++i) histogram.Observe(4096);
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_LE(snap.p50, 15u);  // fast bucket's upper bound
  EXPECT_GE(snap.p99, 4096u);
  EXPECT_LE(snap.p99, snap.max);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram histogram;
  histogram.Observe(~std::uint64_t{0});
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, ~std::uint64_t{0});
}

TEST(RegistryTest, GetInternsByName) {
  Registry registry;
  Counter& a = registry.GetCounter("x.count");
  Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  // Distinct names are distinct instruments.
  EXPECT_NE(&registry.GetCounter("y.count"), &a);
}

TEST(RegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
  Counter& via_free = GetCounter("metrics_test.global_probe");
  Counter& via_method = Registry::Global().GetCounter(
      "metrics_test.global_probe");
  EXPECT_EQ(&via_free, &via_method);
}

TEST(RegistryTest, TextSnapshotFormatAndSorting) {
  Registry registry;
  registry.GetCounter("b.counter").Add(7);
  registry.GetGauge("c.gauge").Set(-3);
  registry.GetHistogram("a.hist").Observe(5);
  const std::string snapshot = registry.TextSnapshot();
  // One line per instrument, sorted by metric name regardless of kind.
  EXPECT_EQ(snapshot,
            "histogram a.hist count=1 sum=5 p50=5 p95=5 p99=5 max=5\n"
            "counter b.counter 7\n"
            "gauge c.gauge -3\n");
}

TEST(RegistryTest, EmptySnapshotIsEmpty) {
  Registry registry;
  EXPECT_EQ(registry.TextSnapshot(), "");
}

TEST(RegistryTest, ServerTransportInstrumentsExposeWithCatalogKinds) {
  // The server transport's session instruments (docs/OBSERVABILITY.md)
  // render with the kinds the catalog declares; the `metrics` opcode
  // carries exactly these lines.
  Registry registry;
  registry.GetGauge("io_server.inflight_sessions").Add(2);
  registry.GetCounter("io_server.busy_rejects").Add(9);
  registry.GetCounter("io_server.bad_requests").Add(3);
  registry.GetCounter("io_server.sessions_accepted").Add(12);
  registry.GetCounter("io_server.errors").Add(1);
  registry.GetHistogram("io_server.service_time_us.read").Observe(4);
  EXPECT_EQ(registry.TextSnapshot(),
            "counter io_server.bad_requests 3\n"
            "counter io_server.busy_rejects 9\n"
            "counter io_server.errors 1\n"
            "gauge io_server.inflight_sessions 2\n"
            "histogram io_server.service_time_us.read count=1 sum=4 p50=4 "
            "p95=4 p99=4 max=4\n"
            "counter io_server.sessions_accepted 12\n");
}

TEST(RegistryTest, MetadataInstrumentsExposeWithCatalogKinds) {
  // The metadb and client-cache instruments (docs/OBSERVABILITY.md): the
  // database counts statements and times them, and the client's metadata
  // record cache counts its hits and misses.
  Registry registry;
  registry.GetCounter("client.metadata_cache.hits").Add(5);
  registry.GetCounter("client.metadata_cache.misses").Add(2);
  registry.GetHistogram("metadb.execute_us").Observe(8);
  registry.GetCounter("metadb.statements").Add(4);
  EXPECT_EQ(registry.TextSnapshot(),
            "counter client.metadata_cache.hits 5\n"
            "counter client.metadata_cache.misses 2\n"
            "histogram metadb.execute_us count=1 sum=8 p50=8 p95=8 "
            "p99=8 max=8\n"
            "counter metadb.statements 4\n");
}

TEST(ScopedTimerTest, ObservesOnDestruction) {
  Histogram histogram;
  { ScopedTimer timer(histogram); }
  const Histogram::Snapshot snap = histogram.GetSnapshot();
  EXPECT_EQ(snap.count, 1u);
}

// The TSan witness: concurrent Add/Observe against shared instruments plus
// concurrent interning and snapshotting. Counts must come out exact (relaxed
// atomics still guarantee no lost updates on fetch_add).
TEST(RegistryTest, ConcurrentUpdatesAreExactAndRaceFree) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter& counter = registry.GetCounter("mt.counter");
      Gauge& gauge = registry.GetGauge("mt.gauge");
      Histogram& histogram = registry.GetHistogram("mt.hist");
      for (int i = 0; i < kIterations; ++i) {
        counter.Add();
        gauge.Add(1);
        gauge.Sub(1);
        histogram.Observe(static_cast<std::uint64_t>(i));
        if (i % 1000 == 0) {
          // Interning and rendering race with the updates by design.
          registry.GetCounter("mt.counter." + std::to_string(t));
          (void)registry.TextSnapshot();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("mt.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetGauge("mt.gauge").value(), 0);
  const Histogram::Snapshot snap =
      registry.GetHistogram("mt.hist").GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(snap.max, static_cast<std::uint64_t>(kIterations) - 1);
}

}  // namespace
}  // namespace dpfs::metrics
