// Multi-client conformance for the standalone metadata service: several
// FileSystem instances, each with its own RemoteMetadataManager, share one
// namespace through a single dpfs-metad. No client caches a record, so the
// suite pins what a shared namespace must honor with no staleness window:
// every mutation and every overwritten byte is visible to the other clients
// at once, a handle opened before another client's rename keeps its bytes,
// and concurrent same-path creates have exactly one winner.
// tests/integration/cross_client_test.cpp runs the remove, re-create and
// chmod cases on an embedded pair as well.
//
// The suite name contains "Metad" so the asan-faults/tsan-faults ctest
// presets pick it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
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
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_a_ = cluster_->fs();
    fs_b_ = SecondClient();
  }

  /// Another client of the same metad — the "separate process" of the
  /// multi-client story, minus the fork (tests/integration/
  /// metad_conformance_test.sh covers true process isolation).
  std::shared_ptr<client::FileSystem> SecondClient() {
    return client::FileSystem::ConnectRemote(cluster_->metad()->endpoint())
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

  // Client B never heard of the file.
  FileHandle rh = fs_b_->Open("/shared.bin").value();
  Bytes read(256);
  ASSERT_TRUE(fs_b_->ReadBytes(rh, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST_F(MetadConformanceTest, OverwriteReachesAnEarlierReader) {
  // An acknowledged write is never served stale to a different client. B
  // reads v1, A overwrites every byte with v2, and B must then read v2
  // through the handle it opened before the write and through a fresh Open.
  constexpr std::size_t kBytes = 64 * 1024;
  CreateOptions create;
  create.total_bytes = kBytes;
  create.brick_bytes = 4096;
  FileHandle writer = fs_a_->Create("/overwritten.bin", create).value();
  Bytes v1(kBytes);
  Bytes v2(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    v1[i] = static_cast<std::uint8_t>(i * 7);
    v2[i] = static_cast<std::uint8_t>(i * 7 + 1);  // differs from v1 everywhere
  }
  const auto stale_bytes = [&v2](const Bytes& read) {
    std::size_t stale = 0;
    for (std::size_t i = 0; i < kBytes; ++i) stale += read[i] != v2[i];
    return stale;
  };
  ASSERT_TRUE(fs_a_->WriteBytes(writer, 0, v1).ok());

  FileHandle reader = fs_b_->Open("/overwritten.bin").value();
  Bytes read(kBytes);
  ASSERT_TRUE(fs_b_->ReadBytes(reader, 0, read).ok());
  ASSERT_EQ(read, v1);

  ASSERT_TRUE(fs_a_->WriteBytes(writer, 0, v2).ok());
  ASSERT_TRUE(fs_b_->ReadBytes(reader, 0, read).ok());
  EXPECT_EQ(stale_bytes(read), 0u);

  FileHandle reopened = fs_b_->Open("/overwritten.bin").value();
  Bytes fresh(kBytes);
  ASSERT_TRUE(fs_b_->ReadBytes(reopened, 0, fresh).ok());
  EXPECT_EQ(stale_bytes(fresh), 0u);
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
  EXPECT_FALSE(fs_a_->metadata().FileExists("/doomed.bin").value());
  EXPECT_FALSE(fs_a_->Open("/doomed.bin").ok());
}

TEST_F(MetadConformanceTest, OwnWritesInvalidateImmediately) {
  const auto fs_c = SecondClient();
  (void)fs_c->Create("/own.bin", LinearFile()).value();
  EXPECT_EQ(fs_c->metadata().LookupFile("/own.bin").value().meta.permission,
            0644u);
  // The mutating client sees its own write at once.
  ASSERT_TRUE(fs_c->metadata().SetPermission("/own.bin", 0751).ok());
  EXPECT_EQ(fs_c->metadata().LookupFile("/own.bin").value().meta.permission,
            0751u);
}

TEST_F(MetadConformanceTest, RenameIsVisibleEverywhere) {
  (void)fs_a_->Create("/before.bin", LinearFile()).value();
  (void)fs_b_->metadata().LookupFile("/before.bin").value();
  ASSERT_TRUE(fs_a_->Rename("/before.bin", "/after.bin").ok());

  EXPECT_FALSE(fs_b_->Open("/before.bin").ok());
  EXPECT_FALSE(fs_b_->metadata().FileExists("/before.bin").value());
  FileHandle handle = fs_b_->Open("/after.bin").value();
  EXPECT_EQ(handle.meta().path, "/after.bin");
}

TEST_F(MetadConformanceTest, SecondClientNeverSeesHalfARename) {
  // Client A swings a file between /d/a and /d/b while client B opens both
  // names and lists /d. dpfs-metad serves the two clients on separate
  // sessions, so B's reads run concurrently with A's rename transactions
  // and must see each of them whole or not at all.
  constexpr int kRenames = 1000;
  ASSERT_TRUE(fs_a_->metadata().MakeDirectory("/d").ok());
  (void)fs_a_->Create("/d/a", LinearFile()).value();

  std::atomic<bool> done{false};
  std::atomic<int> rename_errors{0};
  std::thread renamer([&] {
    for (int i = 0; i < kRenames; ++i) {
      const bool at_a = i % 2 == 0;
      if (!fs_a_->Rename(at_a ? "/d/a" : "/d/b", at_a ? "/d/b" : "/d/a")
               .ok()) {
        ++rename_errors;
      }
    }
    done = true;
  });
  int bad_opens = 0;
  int bad_listings = 0;
  int listings = 0;
  while (!done) {
    for (const char* path : {"/d/a", "/d/b"}) {
      const Result<FileHandle> handle = fs_b_->Open(path);
      if (!handle.ok() && handle.status().code() != StatusCode::kNotFound) {
        ++bad_opens;
      }
    }
    const Result<MetadataService::Listing> listing =
        fs_b_->metadata().ListDirectory("/d");
    ++listings;
    if (!listing.ok()) {
      ++bad_listings;
      continue;
    }
    const std::vector<std::string>& files = listing.value().files;
    if (std::count(files.begin(), files.end(), "a") +
            std::count(files.begin(), files.end(), "b") !=
        1) {
      ++bad_listings;
    }
  }
  renamer.join();

  EXPECT_EQ(rename_errors.load(), 0);
  EXPECT_EQ(bad_opens, 0);
  EXPECT_EQ(bad_listings, 0) << "of " << listings << " listings";
  EXPECT_GT(listings, 0);
}

TEST_F(MetadConformanceTest, WriteThroughEarlierHandleSurvivesOtherRename) {
  // Client C opens /src.bin, B renames it, and the write C is then
  // acknowledged through its handle must be what B reads under the new
  // path: the handle names the file's subfiles, not its path.
  constexpr std::size_t kBytes = 4096;
  const auto fs_c = SecondClient();
  FileHandle created = fs_c->Create("/src.bin", LinearFile(kBytes)).value();
  ASSERT_TRUE(fs_c->WriteBytes(created, 0, Bytes(kBytes, 0x11)).ok());
  FileHandle earlier = fs_c->Open("/src.bin").value();
  ASSERT_TRUE(fs_b_->Rename("/src.bin", "/dst.bin").ok());

  EXPECT_FALSE(fs_c->Open("/src.bin").ok());
  ASSERT_TRUE(fs_c->WriteBytes(earlier, 0, Bytes(kBytes, 0x22)).ok());

  FileHandle renamed = fs_b_->Open("/dst.bin").value();
  Bytes read(kBytes);
  ASSERT_TRUE(fs_b_->ReadBytes(renamed, 0, read).ok());
  EXPECT_EQ(read, Bytes(kBytes, 0x22));
}

TEST_F(MetadConformanceTest, CreateDrawsItsOwnSubfileId) {
  // The subfile id becomes a file name on every I/O server, so dpfs-metad
  // draws it: whatever meta.subfile a create carries is ignored, each file
  // gets a fresh "/" and 32 hex digits, and no server ever sees the id the
  // request carried.
  const std::vector<std::string> carried = {"", "/", "/../x",
                                            "/" + std::string(31, 'a')};
  client::FileMeta meta;
  meta.size_bytes = 256;
  meta.brick_bytes = 64;
  std::set<std::string> drawn;
  for (std::size_t i = 0; i < carried.size(); ++i) {
    meta.path = "/id-" + std::to_string(i) + ".bin";
    meta.subfile = carried[i];
    const client::FileRecord record =
        fs_a_->metadata().CreateFile(meta, {}).value();
    const std::string& id = record.meta.subfile;
    EXPECT_EQ(id.size(), 33u) << "'" << carried[i] << "'";
    EXPECT_EQ(id.front(), '/');
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef", 1), std::string::npos)
        << id;
    drawn.insert(id);
    FileHandle handle = fs_b_->Open(meta.path).value();
    EXPECT_EQ(handle.meta().subfile, id);
    ASSERT_TRUE(fs_b_->WriteBytes(handle, 0, Bytes(256, 0x33)).ok());
  }
  EXPECT_EQ(drawn.size(), carried.size());
  const std::vector<client::ServerInfo> servers =
      fs_a_->metadata().ListServers().value();
  for (const client::ServerInfo& server : servers) {
    net::ServerConnection conn =
        net::ServerConnection::Connect(server.endpoint).value();
    const std::vector<net::SubfileInfo> subfiles = conn.List().value();
    for (const net::SubfileInfo& subfile : subfiles) {
      EXPECT_TRUE(drawn.contains(subfile.name))
          << server.name << " holds " << subfile.name;
    }
  }
}

TEST_F(MetadConformanceTest, CreateNeverReusesALiveFilesSubfileId) {
  // A create that carries a live file's subfile id gets a fresh one, so
  // removing the new file leaves the old file's bytes where they were.
  constexpr std::uint64_t kBytes = 4096;
  FileHandle a = fs_a_->Create("/a", LinearFile(kBytes)).value();
  ASSERT_TRUE(fs_a_->WriteBytes(a, 0, Bytes(kBytes, 0x5a)).ok());
  client::FileMeta meta = a.meta();
  meta.path = "/b";
  const client::FileRecord b = fs_b_->metadata().CreateFile(meta, {}).value();
  EXPECT_NE(b.meta.subfile, a.meta().subfile);
  ASSERT_TRUE(fs_b_->Remove("/b").ok());
  FileHandle reopened = fs_b_->Open("/a").value();
  Bytes read(kBytes);
  ASSERT_TRUE(fs_b_->ReadBytes(reopened, 0, read).ok());
  EXPECT_EQ(read, Bytes(kBytes, 0x5a));
}

TEST_F(MetadConformanceTest, CreateIsOneRoundTrip) {
  // The metad reads the server table and places the file itself, so a
  // FileSystem::Create is one meta_create_file and no meta_list_servers.
  const metrics::Counter& creates =
      metrics::GetCounter("metad.requests.meta_create_file");
  const metrics::Counter& lists =
      metrics::GetCounter("metad.requests.meta_list_servers");
  const std::uint64_t creates_before = creates.value();
  const std::uint64_t lists_before = lists.value();
  constexpr std::uint64_t kCreates = 20;
  for (std::uint64_t i = 0; i < kCreates; ++i) {
    ASSERT_TRUE(
        fs_a_->Create("/trip-" + std::to_string(i), LinearFile()).ok());
  }
  EXPECT_EQ(creates.value() - creates_before, kCreates);
  EXPECT_EQ(lists.value() - lists_before, 0u);
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
    clients.push_back(SecondClient());
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
  const auto fs_late = SecondClient();
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
    clients.push_back(SecondClient());
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
  // The metad registers its per-opcode instruments by walking the kMeta*
  // block; the unassigned bytes 24-26 inside it must not become
  // `metad.requests.unknown` or `metad.service_time_us.unknown`.
  EXPECT_EQ(snapshot.find(".unknown"), std::string::npos);
}

// MetadOptions::max_sessions through the shared transport: the busy reply,
// and every session instrument under the metad.* prefix, not io_server.*.
TEST(MetadSessionCapTest, OverCapSessionGetsBusyUnderTheMetadPrefix) {
  metad::MetadOptions options;
  options.max_sessions = 1;
  std::unique_ptr<metad::MetadService> service =
      metad::MetadService::Start(metadb::Database::OpenInMemory(), options)
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
  EXPECT_EQ(inflight.value(), inflight_before + 1);

  held.reset();
  for (int i = 0; i < 400 && inflight.value() != inflight_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(inflight.value(), inflight_before);
}

}  // namespace
}  // namespace dpfs
