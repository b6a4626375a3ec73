// Body codecs for the metadata-service opcodes (net::MessageType::kMeta*).
//
// The envelope ([u8 type][body] / [u8 status][message][body]) belongs to
// net/messages.h; the bodies are defined here, in the client layer, because
// they are expressed in terms of FileMeta/FileRecord/ServerInfo — types net
// must not depend on (net sits below layout in the build graph).
//
// Every struct round-trips: Decode(Encode(x)) == x field-for-field. The
// round-trip suite (tests/client/meta_wire_test.cpp) pins that, and the
// wire layout itself is documented in docs/WIRE_PROTOCOL.md ("Metadata
// protocol"). Bricklists travel in the DPFS_FILE_DISTRIBUTION text encoding
// ("0,2,6,...") so the wire and the table speak the same dialect. Decoders
// reserve nothing by a wire count: a count the body cannot back fails as
// truncated input, so one frame cannot make the metad allocate more than
// it received.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client/metadata_service.h"
#include "common/bytes.h"
#include "common/status.h"

namespace dpfs::client::meta_wire {

// --- field codecs shared by the message structs ---------------------------
void EncodeServerInfo(const ServerInfo& info, BinaryWriter& writer);
Result<ServerInfo> DecodeServerInfo(BinaryReader& reader);

void EncodeFileMeta(const FileMeta& meta, BinaryWriter& writer);
Result<FileMeta> DecodeFileMeta(BinaryReader& reader);

// --- requests -------------------------------------------------------------

/// kMetaRegisterServer.
struct ServerRequest {
  ServerInfo server;

  void Encode(BinaryWriter& writer) const;
  static Result<ServerRequest> Decode(BinaryReader& reader);
};

/// kMetaUnregisterServer (body: the server name).
struct NameRequest {
  std::string name;

  void Encode(BinaryWriter& writer) const;
  static Result<NameRequest> Decode(BinaryReader& reader);
};

/// kMetaLookupFile / kMetaDeleteFile / kMetaFileExists /
/// kMetaMakeDirectory / kMetaRemoveDirectory / kMetaDirectoryExists /
/// kMetaListDirectory (body: the DPFS path).
struct PathRequest {
  std::string path;

  void Encode(BinaryWriter& writer) const;
  static Result<PathRequest> Decode(BinaryReader& reader);
};

/// kMetaCreateFile: the file's geometry and the placement hints. The metad
/// draws the subfile id and places the bricks; the reply is a
/// FileRecordReply.
struct CreateFileRequest {
  FileMeta meta;
  PlacementHints hints;

  void Encode(BinaryWriter& writer) const;
  static Result<CreateFileRequest> Decode(BinaryReader& reader);
};

/// kMetaSetPermission.
struct SetPermissionRequest {
  std::string path;
  std::uint32_t permission = 0;

  void Encode(BinaryWriter& writer) const;
  static Result<SetPermissionRequest> Decode(BinaryReader& reader);
};

/// kMetaSetOwner.
struct SetOwnerRequest {
  std::string path;
  std::string owner;

  void Encode(BinaryWriter& writer) const;
  static Result<SetOwnerRequest> Decode(BinaryReader& reader);
};

/// kMetaRenameFile.
struct RenameRequest {
  std::string from;
  std::string to;

  void Encode(BinaryWriter& writer) const;
  static Result<RenameRequest> Decode(BinaryReader& reader);
};

// --- replies --------------------------------------------------------------

/// kMetaListServers reply.
struct ServerListReply {
  std::vector<ServerInfo> servers;

  void Encode(BinaryWriter& writer) const;
  static Result<ServerListReply> Decode(BinaryReader& reader);
};

/// kMetaCreateFile, kMetaLookupFile and kMetaDeleteFile reply (the created,
/// found or deleted file's record).
/// `num_bricks` travels explicitly so the decoder
/// rebuilds the exact BrickDistribution without re-deriving the brick map.
/// Replica ranks (record.replicas) ride in a trailing section that
/// unreplicated records omit, keeping their frames byte-identical to the
/// pre-replication format.
struct FileRecordReply {
  FileRecord record;

  void Encode(BinaryWriter& writer) const;
  static Result<FileRecordReply> Decode(BinaryReader& reader);
};

/// kMetaFileExists / kMetaDirectoryExists reply.
struct BoolReply {
  bool value = false;

  void Encode(BinaryWriter& writer) const;
  static Result<BoolReply> Decode(BinaryReader& reader);
};

/// kMetaListDirectory reply.
struct ListingReply {
  MetadataService::Listing listing;

  void Encode(BinaryWriter& writer) const;
  static Result<ListingReply> Decode(BinaryReader& reader);
};

}  // namespace dpfs::client::meta_wire
