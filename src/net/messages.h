// The DPFS client↔server wire protocol.
//
// Every message travels as one frame (frame.h). A request payload is
// [u8 MessageType][type-specific body]; a reply payload is
// [u8 StatusCode][string message][type-specific body].
//
// The server operates on *subfiles* — ordinary files in its local file
// system (§2: "the server ... uses the local file system API to actually
// perform I/O"). Brick placement and offsets are entirely client-side
// knowledge derived from metadata; the server just reads and writes
// (offset, length) fragments of named subfiles. A combined request (§4.2)
// is simply a fragment list with more than one entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dpfs::net {

enum class MessageType : std::uint8_t {
  kPing = 1,
  kRead = 2,
  kWrite = 3,
  // 4, 6, 8 and 9 are unassigned (retired opcodes, never renumbered):
  // DecodeRequest rejects them like any byte with no enumerator.
  kDelete = 5,
  kShutdown = 7,
  kList = 10,    // list all subfiles (fsck support)
  kMetrics = 11, // full metrics text snapshot (docs/OBSERVABILITY.md)

  // Metadata-service opcodes (extension: dpfs-metad, docs/WIRE_PROTOCOL.md
  // "Metadata protocol"). Served only by the metadata server; an I/O server
  // answers them with kProtocolError. Body schemas are owned by the client
  // layer (client/meta_wire.h) because they are expressed in terms of
  // FileMeta/FileRecord; net stays ignorant of them.
  kMetaRegisterServer = 12,
  kMetaUnregisterServer = 13,
  kMetaListServers = 14,
  // 15 and 18 are unassigned, like 4, 6, 8 and 9.
  kMetaCreateFile = 16,
  kMetaLookupFile = 17,
  kMetaSetPermission = 19,
  kMetaSetOwner = 20,
  kMetaDeleteFile = 21,
  kMetaFileExists = 22,
  kMetaRenameFile = 23,
  // 24-26 are unassigned, like 4, 6, 8 and 9.
  kMetaMakeDirectory = 27,
  kMetaRemoveDirectory = 28,
  kMetaDirectoryExists = 29,
  kMetaListDirectory = 30,
  // 31 and 32 (the retired list I/O pair) lie past the range: a
  // noncontiguous access travels as kRead/kWrite fragment lists
  // (docs/NONCONTIGUOUS_IO.md).
};

/// Highest MessageType value; DecodeRequest rejects anything above. The
/// kMeta* block ends the range: the metadata server serves the assigned
/// types in [kMetaRegisterServer, kMaxMessageType] (plus
/// ping/shutdown/metrics) and refuses everything else as an I/O opcode.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kMetaListDirectory);

/// One entry of a kList reply.
struct SubfileInfo {
  std::string name;  // normalized, e.g. a subfile id "/0f3a...9c"
  std::uint64_t size = 0;

  friend bool operator==(const SubfileInfo&, const SubfileInfo&) = default;
};

/// The opcode's name in metrics and logs; "unknown" for a value with no
/// enumerator.
std::string_view MessageTypeName(MessageType type) noexcept;

/// One contiguous piece of a subfile.
struct ReadFragment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const ReadFragment&, const ReadFragment&) = default;
};

/// The fragments may name any offsets in any order (whole-brick and
/// replica-rank requests name slots out of order). Decode allocates nothing
/// sized by the wire count, and rejects a request whose lengths add up to
/// more than one reply frame can carry.
struct ReadRequest {
  std::string subfile;
  std::vector<ReadFragment> fragments;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  void Encode(BinaryWriter& writer) const;
  static Result<ReadRequest> Decode(BinaryReader& reader);
};

struct WriteFragment {
  std::uint64_t offset = 0;
  Bytes data;

  friend bool operator==(const WriteFragment&, const WriteFragment&) = default;
};

struct WriteRequest {
  std::string subfile;
  bool sync = false;  // fsync after writing
  std::vector<WriteFragment> fragments;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  void Encode(BinaryWriter& writer) const;
  static Result<WriteRequest> Decode(BinaryReader& reader);
};

/// Envelope helpers.
Bytes EncodeRequest(MessageType type, ByteSpan body);
Bytes EncodeReply(const Status& status, ByteSpan body);

struct DecodedRequest {
  MessageType type;
  ByteSpan body;  // view into the frame buffer
};
/// A type byte with no MessageType enumerator is a kProtocolError ("bad
/// message type N").
Result<DecodedRequest> DecodeRequest(ByteSpan payload);

struct DecodedReply {
  Status status;
  ByteSpan body;  // view into the frame buffer
};
Result<DecodedReply> DecodeReply(ByteSpan payload);

}  // namespace dpfs::net
