// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding the
// durable on-disk artifacts: spill-file frames (spill_format.h) and engine
// checkpoint sidecars (engine/checkpoint.h).
//
// CRC32C is the iSCSI/ext4/LevelDB checksum: its error-detection
// properties over short frames are well studied, and RFC 3720 §B.4
// publishes known-answer vectors (see tests/telemetry/crc32c_test.cc), so
// the implementation can be verified against an external ground truth
// rather than only against itself.
//
// crc32c_extend dispatches once, at first use, to the SSE4.2 `crc32`
// instruction where the CPU has it (x86-64 builds with GCC or Clang), and
// to portable slicing-by-8 tables everywhere else.  Both compute the same
// function, so every file is readable on every host; the table path stays
// as the fallback and as the tests' oracle for the instruction path
// (crc32c_extend_portable).
//
// Convention: crc32c(data, n) is the finalized (pre- and post-inverted)
// checksum, matching the RFC 3720 vectors.  The extend() form chains
// incremental computation over discontiguous buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vstream::telemetry {

/// Extend a running CRC32C with `n` bytes.  Seed with `kCrc32cInit`, pass
/// the previous return value for subsequent pieces, and finalize with
/// crc32c_finalize() — or use the one-shot crc32c() below.
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;

std::uint32_t crc32c_extend(std::uint32_t state, const void* data,
                            std::size_t n);

/// crc32c_extend on the slicing-by-8 tables, whatever the CPU.
std::uint32_t crc32c_extend_portable(std::uint32_t state, const void* data,
                                     std::size_t n);

inline std::uint32_t crc32c_finalize(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot finalized CRC32C of a buffer (the RFC 3720 convention).
inline std::uint32_t crc32c(const void* data, std::size_t n) {
  return crc32c_finalize(crc32c_extend(kCrc32cInit, data, n));
}

inline std::uint32_t crc32c(std::string_view s) {
  return crc32c(s.data(), s.size());
}

}  // namespace vstream::telemetry
