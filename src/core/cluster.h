// In-process DPFS cluster bootstrap.
//
// The paper runs one DPFS server per storage workstation; examples, tests,
// and the shell need the same topology without a machine room. LocalCluster
// starts N real IoServers (each with its own subfile root and TCP port on
// loopback), opens a metadata database, registers the servers in
// DPFS_SERVER, and hands back a connected FileSystem. Everything is torn
// down in reverse order on destruction.
#pragma once

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "client/file_system.h"
#include "common/status.h"
#include "common/temp_dir.h"
#include "metad/metad.h"
#include "server/io_server.h"

namespace dpfs::core {

struct ClusterOptions {
  std::uint32_t num_servers = 4;
  /// Normalized performance number per server (§4.1); sized to num_servers
  /// or empty for all-1 (homogeneous).
  std::vector<std::uint32_t> performance;
  /// Advertised capacity per server (metadata only).
  std::uint64_t capacity_bytes = 1ull << 30;
  /// Root for server storage and the metadata db; a TempDir is created when
  /// empty.
  std::filesystem::path root_dir;
  /// Persist metadata on disk (the metadb WAL) instead of in memory.
  bool durable_metadata = false;
  /// Concurrent session cap per server (0 = unlimited); see
  /// ServerOptions::max_sessions.
  std::size_t max_sessions = 0;
  /// Run an in-process dpfs-metad owning the metadata database; the
  /// cluster's FileSystem then talks to it over the wire (the dpfs-metad
  /// extension). Default off — embedded metadata, byte-identical to the
  /// paper's model.
  bool start_metadata_service = false;
  /// Retired: the client keeps no lookup cache. Start refuses any value
  /// but 0 with kInvalidArgument; the field stays only for callers that
  /// still set it to 0.
  std::chrono::milliseconds metadata_cache_ttl{0};
};

class LocalCluster {
 public:
  static Result<std::unique_ptr<LocalCluster>> Start(ClusterOptions options);

  ~LocalCluster();
  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  [[nodiscard]] std::shared_ptr<client::FileSystem> fs() const noexcept {
    return fs_;
  }
  /// The metadata database, owned by this process (by its in-process metad
  /// with start_metadata_service).
  [[nodiscard]] std::shared_ptr<metadb::Database> db() const noexcept {
    return db_;
  }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] server::IoServer& server(std::size_t index) {
    return *servers_.at(index);
  }
  [[nodiscard]] const std::filesystem::path& root() const noexcept {
    return root_;
  }

  /// Stops every server (idempotent; also runs at destruction).
  void Stop();

  /// Stops server `index` and starts a replacement on the same port and
  /// subfile root, as if the workstation rebooted. Registered metadata is
  /// unchanged (same name, same endpoint), so clients recover by retrying.
  Status RestartServer(std::size_t index);

  /// The in-process metadata service, or null unless
  /// start_metadata_service was set.
  [[nodiscard]] metad::MetadService* metad() const noexcept {
    return metad_.get();
  }

  /// Stops the in-process metad and starts a replacement on the same port
  /// and the same database, as if the metadata host rebooted, so chaos
  /// tests exercise a metad restart over the wire. Error unless
  /// start_metadata_service was set.
  Status RestartMetad();

 private:
  LocalCluster() = default;

  std::optional<TempDir> owned_root_;
  std::filesystem::path root_;
  std::size_t max_sessions_ = 0;
  std::vector<std::unique_ptr<server::IoServer>> servers_;
  std::shared_ptr<metadb::Database> db_;
  std::unique_ptr<metad::MetadService> metad_;
  std::shared_ptr<client::FileSystem> fs_;
};

}  // namespace dpfs::core
