// Multi-client conformance for the standalone metadata service: several
// FileSystem instances — each with its own RemoteMetadataManager and TTL
// cache — share one namespace through a single dpfs-metad. The suite pins
// the semantics a shared namespace must honor: cross-client visibility of
// every mutation, the bounded staleness window of the lookup cache,
// invalidate-on-own-write, and exactly-one-winner under concurrent
// same-path creates.
//
// The suite name contains "Metad" so the asan-faults/tsan-faults ctest
// presets pick it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/cluster.h"
#include "net/connection.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::FileHandle;
using client::MetadataService;

class MetadConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 3;
    options.start_metadata_service = true;
    options.metadata_cache_ttl = kTtl;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_a_ = cluster_->fs();
    fs_b_ = SecondClient(kTtl);
  }

  /// Another client of the same metad — the "separate process" of the
  /// multi-client story, minus the fork (tests/integration/
  /// metad_conformance_test.sh covers true process isolation).
  std::shared_ptr<client::FileSystem> SecondClient(
      std::chrono::milliseconds ttl) {
    client::RemoteMetadataOptions options;
    options.cache_ttl = ttl;
    return client::FileSystem::ConnectRemote(cluster_->metad()->endpoint(),
                                             options)
        .value();
  }

  static CreateOptions LinearFile(std::uint64_t total_bytes = 256) {
    CreateOptions create;
    create.total_bytes = total_bytes;
    create.brick_bytes = 64;
    return create;
  }

  static bool Listed(MetadataService& metadata, const std::string& dir,
                     const std::string& name) {
    const MetadataService::Listing listing =
        metadata.ListDirectory(dir).value();
    return std::find(listing.files.begin(), listing.files.end(), name) !=
           listing.files.end();
  }

  static constexpr std::chrono::milliseconds kTtl{60};

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<client::FileSystem> fs_a_;
  std::shared_ptr<client::FileSystem> fs_b_;
};

TEST_F(MetadConformanceTest, RemoteModeHasNoEmbeddedDatabase) {
  // The remote FileSystem must not hold the metadata database — that is the
  // whole point of the service. (The embedded default is pinned by every
  // other integration suite, which runs without start_metadata_service.)
  EXPECT_EQ(fs_a_->embedded_metadata(), nullptr);
  EXPECT_EQ(fs_b_->embedded_metadata(), nullptr);
  EXPECT_NE(fs_a_->remote_metadata(), nullptr);
  EXPECT_NE(cluster_->metad(), nullptr);
}

TEST_F(MetadConformanceTest, CreateIsVisibleToOtherClientsWithData) {
  FileHandle wh = fs_a_->Create("/shared.bin", LinearFile()).value();
  Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(fs_a_->WriteBytes(wh, 0, data).ok());

  // Client B never heard of the file; its first lookup goes to the wire.
  FileHandle rh = fs_b_->Open("/shared.bin").value();
  Bytes read(256);
  ASSERT_TRUE(fs_b_->ReadBytes(rh, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST_F(MetadConformanceTest, DirectoryOperationsAreShared) {
  ASSERT_TRUE(fs_a_->metadata().MakeDirectory("/proj").ok());
  EXPECT_TRUE(fs_b_->metadata().DirectoryExists("/proj").value());

  (void)fs_a_->Create("/proj/a.dat", LinearFile()).value();
  (void)fs_b_->Create("/proj/b.dat", LinearFile()).value();

  const MetadataService::Listing listing =
      fs_a_->metadata().ListDirectory("/proj").value();
  EXPECT_EQ(listing.files, (std::vector<std::string>{"a.dat", "b.dat"}));
}

TEST_F(MetadConformanceTest, RemovalIsVisibleToOtherClients) {
  (void)fs_a_->Create("/doomed.bin", LinearFile()).value();
  ASSERT_TRUE(fs_b_->metadata().FileExists("/doomed.bin").value());
  ASSERT_TRUE(fs_b_->Remove("/doomed.bin").ok());
  // B deleted it, so B's cache self-invalidated; A never cached it.
  EXPECT_FALSE(fs_a_->metadata().FileExists("/doomed.bin").value());
  EXPECT_FALSE(fs_a_->Open("/doomed.bin").ok());
}

TEST_F(MetadConformanceTest, StaleCacheServesUntilInvalidated) {
  // A generous TTL makes the staleness deterministic: B's cached record
  // must survive A's mutation until B explicitly invalidates.
  const auto fs_c = SecondClient(std::chrono::milliseconds(60'000));
  (void)fs_a_->Create("/perm.bin", LinearFile()).value();

  EXPECT_EQ(fs_c->metadata().LookupFile("/perm.bin").value().meta.permission,
            0644u);
  ASSERT_TRUE(fs_a_->metadata().SetPermission("/perm.bin", 0600).ok());

  // Stale serve: the cached record still says 0644.
  EXPECT_EQ(fs_c->metadata().LookupFile("/perm.bin").value().meta.permission,
            0644u);
  EXPECT_GE(fs_c->remote_metadata()->cache_stats().hits, 1u);

  fs_c->remote_metadata()->InvalidateCache("/perm.bin");
  EXPECT_EQ(fs_c->metadata().LookupFile("/perm.bin").value().meta.permission,
            0600u);
}

TEST_F(MetadConformanceTest, TtlExpiryPublishesOtherClientsWrites) {
  (void)fs_a_->Create("/ttl.bin", LinearFile()).value();
  EXPECT_EQ(fs_b_->metadata().LookupFile("/ttl.bin").value().meta.permission,
            0644u);
  ASSERT_TRUE(fs_a_->metadata().SetPermission("/ttl.bin", 0400).ok());

  // After the TTL the next lookup must re-fetch — the staleness bound the
  // extension promises. (Only the fresh-after-expiry direction is asserted
  // here; the stale-before-expiry direction needs the long-TTL client
  // above, where scheduling delays cannot turn it flaky.)
  std::this_thread::sleep_for(kTtl * 3);
  EXPECT_EQ(fs_b_->metadata().LookupFile("/ttl.bin").value().meta.permission,
            0400u);
}

TEST_F(MetadConformanceTest, OwnWritesInvalidateImmediately) {
  const auto fs_c = SecondClient(std::chrono::milliseconds(60'000));
  (void)fs_c->Create("/own.bin", LinearFile()).value();
  EXPECT_EQ(fs_c->metadata().LookupFile("/own.bin").value().meta.permission,
            0644u);
  // The mutating client sees its own write at once, TTL notwithstanding.
  ASSERT_TRUE(fs_c->metadata().SetPermission("/own.bin", 0751).ok());
  EXPECT_EQ(fs_c->metadata().LookupFile("/own.bin").value().meta.permission,
            0751u);
}

TEST_F(MetadConformanceTest, RenameIsVisibleEverywhere) {
  (void)fs_a_->Create("/before.bin", LinearFile()).value();
  (void)fs_b_->metadata().LookupFile("/before.bin").value();  // warm B cache
  ASSERT_TRUE(fs_a_->Rename("/before.bin", "/after.bin").ok());

  std::this_thread::sleep_for(kTtl * 3);  // let B's cached record expire
  EXPECT_FALSE(fs_b_->metadata().FileExists("/before.bin").value());
  FileHandle handle = fs_b_->Open("/after.bin").value();
  EXPECT_EQ(handle.meta().path, "/after.bin");
}

TEST_F(MetadConformanceTest, CacheCountersMove) {
  const auto fs_c = SecondClient(std::chrono::milliseconds(60'000));
  (void)fs_a_->Create("/counted.bin", LinearFile()).value();
  client::RemoteMetadataManager& remote = *fs_c->remote_metadata();
  const client::RemoteMetadataManager::CacheStats before = remote.cache_stats();
  (void)fs_c->metadata().LookupFile("/counted.bin").value();  // miss + fetch
  // Open's lookup normalizes the path, so an alias hits the same entry.
  (void)fs_c->Open("//counted.bin").value();  // hit
  const client::RemoteMetadataManager::CacheStats after = remote.cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST_F(MetadConformanceTest, ConcurrentWritersShareTheNamespace) {
  // N clients, each its own connection, hammer the namespace concurrently:
  // disjoint creates must all land, and every surviving path must be fully
  // resolvable from a late-joining client.
  constexpr int kWriters = 4;
  constexpr int kFilesPerWriter = 6;
  ASSERT_TRUE(fs_a_->metadata().MakeDirectory("/stress").ok());

  std::vector<std::shared_ptr<client::FileSystem>> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.push_back(SecondClient(kTtl));
  }
  std::vector<std::thread> threads;
  std::vector<Status> failures(kWriters, Status::Ok());
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([this, w, &clients, &failures] {
      for (int f = 0; f < kFilesPerWriter; ++f) {
        const std::string path = "/stress/w" + std::to_string(w) + "_f" +
                                 std::to_string(f) + ".bin";
        Result<FileHandle> handle = clients[w]->Create(path, LinearFile());
        if (!handle.ok()) {
          failures[w] = handle.status();
          return;
        }
        Bytes data(256, static_cast<std::uint8_t>(w * 16 + f));
        const Status written = clients[w]->WriteBytes(handle.value(), 0, data);
        if (!written.ok()) {
          failures[w] = written;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(failures[w].ok()) << "writer " << w << ": "
                                  << failures[w].ToString();
  }

  // A fresh client sees every file, and each one resolves with its data.
  const auto fs_late = SecondClient(kTtl);
  const MetadataService::Listing listing =
      fs_late->metadata().ListDirectory("/stress").value();
  EXPECT_EQ(listing.files.size(),
            static_cast<std::size_t>(kWriters * kFilesPerWriter));
  for (const std::string& name : listing.files) {
    FileHandle handle = fs_late->Open("/stress/" + name).value();
    Bytes read(256);
    ASSERT_TRUE(fs_late->ReadBytes(handle, 0, read).ok()) << name;
    EXPECT_EQ(read, Bytes(256, read[0])) << name;  // one uniform fill value
  }
}

TEST_F(MetadConformanceTest, SamePathCreateRaceHasExactlyOneWinner) {
  constexpr int kRacers = 4;
  std::vector<std::shared_ptr<client::FileSystem>> clients;
  for (int r = 0; r < kRacers; ++r) {
    clients.push_back(SecondClient(kTtl));
  }
  std::vector<std::thread> threads;
  std::vector<Status> outcomes(kRacers, Status::Ok());
  for (int r = 0; r < kRacers; ++r) {
    threads.emplace_back([r, &clients, &outcomes] {
      outcomes[r] =
          clients[r]->Create("/contested.bin", LinearFile()).status();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const int winners = static_cast<int>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const Status& status) { return status.ok(); }));
  EXPECT_EQ(winners, 1);
  for (const Status& status : outcomes) {
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kAlreadyExists)
          << status.ToString();
    }
  }
  // Whatever the interleaving, the namespace is coherent afterwards.
  EXPECT_TRUE(fs_a_->metadata().FileExists("/contested.bin").value());
  EXPECT_TRUE(Listed(fs_a_->metadata(), "/", "contested.bin"));
  EXPECT_TRUE(fs_a_->Open("/contested.bin").ok());
}

TEST_F(MetadConformanceTest, MetadMetricsCountNamespaceTraffic) {
  (void)fs_a_->Create("/metered.bin", LinearFile()).value();
  (void)fs_b_->Open("/metered.bin").value();

  const std::unique_ptr<client::RemoteMetadataManager> remote =
      client::RemoteMetadataManager::Connect(cluster_->metad()->endpoint())
          .value();
  const std::string snapshot = remote->FetchMetrics().value();
  EXPECT_NE(snapshot.find("counter metad.requests.meta_create_file "),
            std::string::npos);
  EXPECT_NE(snapshot.find("counter metad.requests.meta_lookup_file "),
            std::string::npos);
  EXPECT_NE(
      snapshot.find("histogram metad.service_time_us.meta_lookup_file "),
      std::string::npos);
}

// MetadOptions::max_sessions through the shared transport: the busy reply,
// and every session instrument under the metad.* prefix, not io_server.*.
TEST(MetadSessionCapTest, OverCapSessionGetsBusyUnderTheMetadPrefix) {
  metad::MetadOptions options;
  options.max_sessions = 1;
  std::unique_ptr<metad::MetadService> service =
      metad::MetadService::Start(
          metadb::ShardedDatabase::OpenInMemory(1).value(), options)
          .value();
  const metrics::Counter& metad_busy =
      metrics::GetCounter("metad.busy_rejects");
  const metrics::Counter& io_busy =
      metrics::GetCounter("io_server.busy_rejects");
  const metrics::Gauge& inflight =
      metrics::GetGauge("metad.inflight_sessions");
  const std::uint64_t metad_busy_before = metad_busy.value();
  const std::uint64_t io_busy_before = io_busy.value();
  const std::int64_t inflight_before = inflight.value();

  std::optional<net::ServerConnection> held =
      net::ServerConnection::Connect(service->endpoint()).value();
  ASSERT_TRUE(held->Ping().ok());  // occupies the single slot
  EXPECT_EQ(inflight.value(), inflight_before + 1);

  net::ServerConnection over =
      net::ServerConnection::Connect(service->endpoint()).value();
  EXPECT_EQ(over.Ping().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metad_busy.value(), metad_busy_before + 1);
  EXPECT_EQ(io_busy.value(), io_busy_before);
  EXPECT_EQ(service->stats().sessions_rejected_busy.load(), 1u);
  EXPECT_EQ(inflight.value(), inflight_before + 1);

  held.reset();
  for (int i = 0; i < 400 && inflight.value() != inflight_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(inflight.value(), inflight_before);
}

}  // namespace
}  // namespace dpfs
