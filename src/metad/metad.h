// dpfs-metad — the standalone DPFS metadata server (extension:
// `metadata_endpoint`, docs/METADATA_SCHEMA.md "Remote access").
//
// The paper embeds metadata access in every client; since metadb::Database
// holds an advisory flock, that limits a namespace to one process. This
// service is the unlock (HopsFS-style): it owns the database and
// serves the kMeta* namespace opcodes over the same frame envelope as the
// I/O servers, so any number of client processes share one mutable
// namespace through their RemoteMetadataManager (client/remote_metadata.h).
//
// It runs on the same transport as the I/O server (server::FrameServer,
// one session thread per connection) under its own metric prefix and its
// own "metad.reply" failpoint site, so chaos schedules target this service
// specifically.
//
// Each namespace operation is one MetadataManager transaction under the
// manager's lock, so clients on different sessions see it whole or not at
// all, and a successor started on the same database sees exactly the
// transactions that committed.
#pragma once

#include <cstdint>
#include <memory>

#include "client/metadata.h"
#include "common/bytes.h"
#include "common/status.h"
#include "metadb/database.h"
#include "net/connection.h"
#include "server/frame_server.h"

namespace dpfs::metad {

struct MetadOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  /// Concurrent session cap; sessions beyond it get a "server busy" reply
  /// like the I/O server's. 0 = unlimited.
  std::size_t max_sessions = 0;
};

class MetadService {
 public:
  /// Attaches a MetadataManager to `db` (creating tables if missing),
  /// binds, and starts serving.
  static Result<std::unique_ptr<MetadService>> Start(
      std::shared_ptr<metadb::Database> db, MetadOptions options = {});

  ~MetadService();
  MetadService(const MetadService&) = delete;
  MetadService& operator=(const MetadService&) = delete;

  [[nodiscard]] net::Endpoint endpoint() const noexcept {
    return transport_.endpoint();
  }
  /// The embedded manager actually serving requests (tests reach through
  /// this to inspect the database the service owns).
  [[nodiscard]] client::MetadataManager& metadata() noexcept {
    return *metadata_;
  }

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent. The database handle is released on destruction, so a
  /// successor service can re-open the directory (flock) afterwards.
  void Stop();

 private:
  MetadService(MetadOptions options,
               std::unique_ptr<client::MetadataManager> metadata);

  /// The per-opcode service switch for the kMeta* opcodes.
  server::FrameServer::Reply Dispatch(net::MessageType type,
                                      BinaryReader& reader);

  std::unique_ptr<client::MetadataManager> metadata_;
  server::FrameServer transport_;
};

}  // namespace dpfs::metad
