// Little-endian fixed-width integers, the byte order of every on-disk
// format here: the spill files (spill_format.h) and the checkpoint
// sidecars (engine/checkpoint.h).
#pragma once

#include <cstdint>
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

inline std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace vstream::telemetry
