#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dpfs {
namespace {

// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

#if defined(__x86_64__)
// The register's update over `bytes` zero bytes, as four byte-indexed
// tables. It is linear over GF(2), so CRC(A || B) = Shift(CRC(A)) ^ CRC(B),
// where B's CRC is taken from a zero register and Shift covers |B| bytes:
// that lets independent streams over adjacent blocks be joined.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

// A linear map of the 32-bit register: entry i is the image of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t Apply(const Gf2Matrix& matrix, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) sum ^= matrix[i];
  }
  return sum;
}

constexpr ShiftTable MakeShiftTable(std::size_t bytes) {
  // One zero bit shifts the register right, folding the polynomial in when
  // bit 0 falls out; squaring doubles the bits covered.
  Gf2Matrix op{};
  op[0] = 0x82F63B78u;
  for (std::size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) {
    Gf2Matrix squared{};
    for (std::size_t i = 0; i < 32; ++i) squared[i] = Apply(op, op[i]);
    op = squared;
  }
  ShiftTable table{};
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    for (std::size_t k = 0; k < 4; ++k) {
      table[k][byte] = Apply(op, byte << (8 * k));
    }
  }
  return table;
}

std::uint64_t Shift(const ShiftTable& table, std::uint64_t crc) noexcept {
  return table[0][crc & 0xFF] ^ table[1][(crc >> 8) & 0xFF] ^
         table[2][(crc >> 16) & 0xFF] ^ table[3][(crc >> 24) & 0xFF];
}

// Three crc32 streams over adjacent blocks hide the instruction's 3-cycle
// latency behind its 1-per-cycle throughput (Gopal et al., "Fast CRC
// Computation for iSCSI Polynomial Using CRC32 Instruction", Intel, 2011).
// Both block sizes are powers of two, so each table is built by squaring.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
constexpr ShiftTable kShiftLong = MakeShiftTable(kLongBlock);
constexpr ShiftTable kShiftShort = MakeShiftTable(kShortBlock);

std::uint64_t Load64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // the span may start anywhere
  return word;
}

// Consumes whole groups of three `block`-byte blocks from `p`/`n`.
__attribute__((target("sse4.2"))) std::uint64_t ThreeStreams(
    std::uint64_t crc, const std::uint8_t*& p, std::size_t& n,
    std::size_t block, const ShiftTable& shift) noexcept {
  for (; n >= 3 * block; p += 3 * block, n -= 3 * block) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t at = 0; at < block; at += 8) {
      crc = _mm_crc32_u64(crc, Load64(p + at));
      crc1 = _mm_crc32_u64(crc1, Load64(p + block + at));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * block + at));
    }
    crc = Shift(shift, crc) ^ crc1;
    crc = Shift(shift, crc) ^ crc2;
  }
  return crc;
}

// SSE4.2's crc32 instruction computes this same polynomial, 8 bytes a step.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, ByteSpan data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = ~crc;
  state = ThreeStreams(state, p, n, kLongBlock, kShiftLong);
  state = ThreeStreams(state, p, n, kShortBlock, kShiftShort);
  for (; n >= 8; p += 8, n -= 8) state = _mm_crc32_u64(state, Load64(p));
  auto tail = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}
#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, ByteSpan) noexcept;

ExtendFn ChooseExtend() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cExtendSse42;
#endif
  return &internal::Crc32cExtendTable;
}

}  // namespace

namespace internal {

std::uint32_t Crc32cExtendTable(std::uint32_t crc, ByteSpan data) noexcept {
  crc = ~crc;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

}  // namespace internal

std::uint32_t Crc32cExtend(std::uint32_t crc, ByteSpan data) noexcept {
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data);
}

std::uint32_t Crc32c(ByteSpan data) noexcept { return Crc32cExtend(0, data); }

}  // namespace dpfs
