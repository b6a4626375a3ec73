// Length-prefixed, checksummed message framing over a TcpSocket.
//
// Frame layout: [u32 payload_len][u32 crc32c(payload)][payload bytes].
// The CRC catches corruption that TCP's 16-bit checksum can miss on the
// long-haul heterogeneous links DPFS targets.
#pragma once

#include <initializer_list>

#include "common/bytes.h"
#include "common/status.h"
#include "net/socket.h"

namespace dpfs::net {

/// Hard cap on a single frame; combined brick requests stay well below.
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;  // 1 GiB

/// Sends one frame whose payload is `parts` back to back: the checksum runs
/// over the parts in place and one SendAll sends the header with them, so
/// nothing copies a part next to another (a type byte or reply envelope in
/// front of a body). The bytes on the wire are those of the concatenation.
Status SendFrame(TcpSocket& socket, std::initializer_list<ByteSpan> parts);

/// Receives one frame into `payload`. kUnavailable on clean peer close
/// before any byte of a frame, kDataLoss on checksum mismatch.
Status RecvFrame(TcpSocket& socket, Bytes& payload);

}  // namespace dpfs::net
