// CRC-32C (Castagnoli) used to protect WAL records and wire frames.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace dpfs {

/// One-shot CRC-32C of a byte span.
std::uint32_t Crc32c(ByteSpan data) noexcept;

/// Incremental form: crc = Crc32cExtend(crc_so_far, next_chunk).
/// Seed with 0 for a fresh computation. Runs on the CPU's CRC instruction
/// where it has one (SSE4.2, chosen once at run time) and on the byte table
/// below elsewhere; both give the same values.
std::uint32_t Crc32cExtend(std::uint32_t crc, ByteSpan data) noexcept;

namespace internal {
/// The portable byte-table CRC-32C: Crc32cExtend's fallback, and the
/// reference that tests and bench/micro_crc compare the fast path against.
std::uint32_t Crc32cExtendTable(std::uint32_t crc, ByteSpan data) noexcept;
}  // namespace internal

}  // namespace dpfs
