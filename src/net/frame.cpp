#include "net/frame.h"

#include "common/crc32.h"

namespace dpfs::net {

Status SendFrame(TcpSocket& socket, ByteSpan payload) {
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds maximum size");
  }
  BinaryWriter header;
  header.WriteU32(static_cast<std::uint32_t>(payload.size()));
  header.WriteU32(Crc32c(payload));
  DPFS_RETURN_IF_ERROR(socket.SendAll(header.buffer()));
  return socket.SendAll(payload);
}

Status RecvFrame(TcpSocket& socket, Bytes& payload) {
  std::uint8_t header[8];
  DPFS_RETURN_IF_ERROR(socket.RecvExact({header, sizeof(header)}));
  BinaryReader reader(AsBytes(header, sizeof(header)));
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t length, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t crc, reader.ReadU32());
  if (length > kMaxFrameBytes) {
    return ProtocolError("frame length " + std::to_string(length) +
                         " exceeds maximum");
  }
  payload.resize(length);
  if (length > 0) {
    DPFS_RETURN_IF_ERROR(socket.RecvExact({payload.data(), payload.size()}));
  }
  if (Crc32c(payload) != crc) {
    return DataLossError("frame checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace dpfs::net
