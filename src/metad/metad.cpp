#include "metad/metad.h"

#include <string>
#include <utility>
#include <vector>

#include "client/meta_wire.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "layout/placement.h"
#include "net/messages.h"

namespace dpfs::metad {

namespace {

using client::meta_wire::BoolReply;
using client::meta_wire::CreateFileRequest;
using client::meta_wire::FileRecordReply;
using client::meta_wire::ListingReply;
using client::meta_wire::NameRequest;
using client::meta_wire::PathRequest;
using client::meta_wire::RenameRequest;
using client::meta_wire::ServerListReply;
using client::meta_wire::ServerRequest;
using client::meta_wire::SetOwnerRequest;
using client::meta_wire::SetPermissionRequest;

/// The kMeta* block, minus the unassigned type bytes inside it.
std::vector<net::MessageType> MetaOpcodes() {
  std::vector<net::MessageType> opcodes;
  for (int op = static_cast<int>(net::MessageType::kMetaRegisterServer);
       op <= net::kMaxMessageType; ++op) {
    const auto type = static_cast<net::MessageType>(op);
    if (net::MessageTypeName(type) != "unknown") opcodes.push_back(type);
  }
  return opcodes;
}

server::FrameServer::Reply StatusReply(const Status& status) {
  return {net::EncodeReply(status)};
}

template <typename Body>
server::FrameServer::Reply BodyReply(const Body& body) {
  BinaryWriter reply(net::EncodeReply(Status::Ok()));
  body.Encode(reply);
  return {std::move(reply).TakeBuffer()};
}

}  // namespace

Result<std::unique_ptr<MetadService>> MetadService::Start(
    std::shared_ptr<metadb::Database> db, MetadOptions options) {
  if (db == nullptr) {
    return InvalidArgumentError("metad: null database");
  }
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<client::MetadataManager> metadata,
                        client::MetadataManager::Attach(std::move(db)));
  std::unique_ptr<MetadService> service(
      new MetadService(options, std::move(metadata)));
  DPFS_RETURN_IF_ERROR(service->transport_.Start());
  return service;
}

MetadService::MetadService(MetadOptions options,
                           std::unique_ptr<client::MetadataManager> metadata)
    : metadata_(std::move(metadata)),
      transport_({.port = options.port,
                  .max_sessions = options.max_sessions,
                  .metric_prefix = "metad",
                  .opcodes = MetaOpcodes(),
                  .reply_failpoint = "metad.reply"},
                 [this](net::MessageType type, BinaryReader& reader,
                        Bytes& /*scratch*/) {
                   return Dispatch(type, reader);
                 }) {}

MetadService::~MetadService() { Stop(); }

void MetadService::Stop() { transport_.Stop(); }

// dpfs:blocking-ok(the metadata service intentionally executes durable
// namespace mutations on the session thread that received them: the WAL
// commit *is* the service time the client is waiting for, and §3.1
// serializes metadata ops anyway)
server::FrameServer::Reply MetadService::Dispatch(net::MessageType type,
                                                BinaryReader& reader) {
  if (failpoint::Check("metad.crash")) {
    // The service dies under this request: stop serving and answer
    // kUnavailable so the client's view matches an abrupt process death
    // followed by connection refusal.
    metrics::GetCounter("metad.errors").Add();
    transport_.StopAccepting();
    return StatusReply(
        UnavailableError("metadata server crashed (failpoint metad.crash)"));
  }
  switch (type) {
    case net::MessageType::kMetaRegisterServer: {
      const Result<ServerRequest> request = ServerRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->RegisterServer(request.value().server));
    }

    case net::MessageType::kMetaUnregisterServer: {
      const Result<NameRequest> request = NameRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->UnregisterServer(request.value().name));
    }

    case net::MessageType::kMetaListServers: {
      Result<std::vector<client::ServerInfo>> servers =
          metadata_->ListServers();
      if (!servers.ok()) return StatusReply(servers.status());
      ServerListReply reply;
      reply.servers = std::move(servers).value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaCreateFile: {
      const Result<CreateFileRequest> request =
          CreateFileRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<layout::BrickMap> map = request.value().meta.MakeBrickMap();
      if (!map.ok()) return StatusReply(map.status());
      std::vector<std::vector<layout::BrickId>> bricklists;
      bricklists.reserve(request.value().bricklists.size());
      for (const std::string& text : request.value().bricklists) {
        Result<std::vector<layout::BrickId>> bricks =
            layout::BrickDistribution::DecodeBrickList(text);
        if (!bricks.ok()) return StatusReply(bricks.status());
        bricklists.push_back(std::move(bricks).value());
      }
      Result<layout::BrickDistribution> distribution =
          layout::BrickDistribution::FromBrickLists(map.value().num_bricks(),
                                                    std::move(bricklists));
      if (!distribution.ok()) return StatusReply(distribution.status());
      std::vector<layout::BrickDistribution> replicas;
      replicas.reserve(request.value().replica_bricklists.size());
      for (const std::vector<std::string>& rank :
           request.value().replica_bricklists) {
        std::vector<std::vector<layout::BrickId>> rank_lists;
        rank_lists.reserve(rank.size());
        for (const std::string& text : rank) {
          Result<std::vector<layout::BrickId>> bricks =
              layout::BrickDistribution::DecodeBrickList(text);
          if (!bricks.ok()) return StatusReply(bricks.status());
          rank_lists.push_back(std::move(bricks).value());
        }
        Result<layout::BrickDistribution> rank_dist =
            layout::BrickDistribution::FromBrickLists(
                map.value().num_bricks(), std::move(rank_lists));
        if (!rank_dist.ok()) return StatusReply(rank_dist.status());
        replicas.push_back(std::move(rank_dist).value());
      }
      return StatusReply(metadata_->CreateFile(request.value().meta,
                                               request.value().server_names,
                                               distribution.value(),
                                               replicas));
    }

    case net::MessageType::kMetaLookupFile: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::FileRecord> record =
          metadata_->LookupFile(request.value().path);
      if (!record.ok()) return StatusReply(record.status());
      FileRecordReply reply;
      reply.record = std::move(record).value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaSetPermission: {
      const Result<SetPermissionRequest> request =
          SetPermissionRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->SetPermission(
          request.value().path, request.value().permission));
    }

    case net::MessageType::kMetaSetOwner: {
      const Result<SetOwnerRequest> request = SetOwnerRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(
          metadata_->SetOwner(request.value().path, request.value().owner));
    }

    case net::MessageType::kMetaDeleteFile: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::FileRecord> record =
          metadata_->DeleteFile(request.value().path);
      if (!record.ok()) return StatusReply(record.status());
      FileRecordReply reply;
      reply.record = std::move(record).value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaFileExists: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<bool> exists = metadata_->FileExists(request.value().path);
      if (!exists.ok()) return StatusReply(exists.status());
      BoolReply reply;
      reply.value = exists.value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaRenameFile: {
      const Result<RenameRequest> request = RenameRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(
          metadata_->RenameFile(request.value().from, request.value().to));
    }

    case net::MessageType::kMetaMakeDirectory: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->MakeDirectory(request.value().path));
    }

    case net::MessageType::kMetaRemoveDirectory: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->RemoveDirectory(request.value().path));
    }

    case net::MessageType::kMetaDirectoryExists: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<bool> exists =
          metadata_->DirectoryExists(request.value().path);
      if (!exists.ok()) return StatusReply(exists.status());
      BoolReply reply;
      reply.value = exists.value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaListDirectory: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::MetadataService::Listing> listing =
          metadata_->ListDirectory(request.value().path);
      if (!listing.ok()) return StatusReply(listing.status());
      ListingReply reply;
      reply.listing = std::move(listing).value();
      return BodyReply(reply);
    }

    default:
      // I/O opcodes never reach Dispatch; the switch stays total under
      // -Wswitch.
      break;
  }
  return StatusReply(ProtocolError("unhandled message type"));
}

}  // namespace dpfs::metad
