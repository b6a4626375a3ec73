#include "net/frame.h"

#include <vector>

#include "common/crc32.h"

namespace dpfs::net {

Status SendFrame(TcpSocket& socket, std::initializer_list<ByteSpan> parts) {
  std::uint64_t size = 0;
  for (const ByteSpan part : parts) size += part.size();
  if (size > kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds maximum size");
  }
  std::uint32_t crc = 0;
  for (const ByteSpan part : parts) crc = Crc32cExtend(crc, part);
  BinaryWriter header;
  header.WriteU32(static_cast<std::uint32_t>(size));
  header.WriteU32(crc);
  std::vector<ByteSpan> frame;
  frame.reserve(parts.size() + 1);
  frame.push_back(header.buffer());
  frame.insert(frame.end(), parts.begin(), parts.end());
  return socket.SendAll(frame);
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
