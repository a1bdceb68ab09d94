#include "telemetry/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define CRC32C_X86_DISPATCH 1
#endif

namespace vstream::telemetry {

namespace {

// Reflected CRC32C polynomial (bit-reversed 0x1EDC6F41).
constexpr std::uint32_t kPoly = 0x82F63B78u;

/// 8 tables of 256 entries: table[0] is the classic byte-at-a-time table,
/// table[k][b] is the CRC of byte b followed by k zero bytes — the
/// slicing-by-8 construction, built at compile time.
struct Tables {
  std::uint32_t t[8][256];

  constexpr Tables() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Tables kTables{};

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef CRC32C_X86_DISPATCH
/// The SSE4.2 instruction computes the same reflected CRC32C update as
/// the tables, 8 bytes per instruction.
__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(
    std::uint32_t state, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
}
#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

ExtendFn resolve_extend() {
#ifdef CRC32C_X86_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return extend_sse42;
#endif
  return crc32c_extend_portable;
}

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t state, const void* data,
                            std::size_t n) {
  static const ExtendFn impl = resolve_extend();
  return impl(state, data, n);
}

std::uint32_t crc32c_extend_portable(std::uint32_t state, const void* data,
                                     std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state;

  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables.t[7][lo & 0xFFu] ^ kTables.t[6][(lo >> 8) & 0xFFu] ^
          kTables.t[5][(lo >> 16) & 0xFFu] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xFFu] ^ kTables.t[2][(hi >> 8) & 0xFFu] ^
          kTables.t[1][(hi >> 16) & 0xFFu] ^ kTables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

}  // namespace vstream::telemetry
