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
// SSE4.2's crc32 instruction computes this same polynomial, 8 bytes a step.
// Loads go through memcpy: the span may start at any address.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, ByteSpan data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
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
