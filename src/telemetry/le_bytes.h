// Little-endian fixed-width integers, the byte order of every on-disk
// format here: the spill files (spill_format.h) and the checkpoint
// sidecars (engine/checkpoint.h).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace vstream::telemetry {

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, 8);
}

// The loads are one unaligned load each (memcpy), byte-swapped on a
// big-endian host; the spill decoders use load_u64 per value.

inline std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace vstream::telemetry
