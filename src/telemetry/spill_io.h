// Byte-level I/O for the spill format (spill_format.h): one read path and
// one write path.
//
//   * SpillMapping — read side.  The file is mapped read-only (mmap +
//     madvise(MADV_SEQUENTIAL)), so parse and CRC work straight out of the
//     page cache with zero copies.
//
//   * SpillFileBackend — write side.  Appends are staged in a buffer and
//     drained synchronously as one contiguous write per ~256 KiB (one
//     syscall per many blocks instead of three per block).
//
// Error model: write errors are *sticky*.  The backend never throws after
// construction; failed() reports the first error and SpillWriter turns it
// into the documented sim::HostIoError at the next write()/flush/close.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

namespace vstream::telemetry {

/// Buffer size at which staged writes drain to the OS.
inline constexpr std::size_t kSpillIoBufferBytes = 256 * 1024;

// --------------------------------------------------------------- read side

/// Read-only mapping of one whole spill file.  A 0-byte file is not mapped
/// (size() == 0, data() == nullptr); callers bounds-check offsets against
/// size().
class SpillMapping {
 public:
  /// Throws std::runtime_error when the file cannot be opened or stat'ed,
  /// and sim::HostIoError when mmap itself fails.
  explicit SpillMapping(const std::filesystem::path& path);
  ~SpillMapping();

  SpillMapping(const SpillMapping&) = delete;
  SpillMapping& operator=(const SpillMapping&) = delete;

  std::uint64_t size() const { return size_; }
  const char* data() const { return data_; }

 private:
  const char* data_ = nullptr;
  std::uint64_t size_ = 0;
};

// -------------------------------------------------------------- write side

/// Buffered appender for one spill file.  Not thread-safe; one shard owns
/// one backend.
class SpillFileBackend {
 public:
  /// Opens `path` (truncating or appending).  Throws sim::HostIoError
  /// when the file cannot be opened.
  SpillFileBackend(const std::filesystem::path& path, bool truncate);

  /// Drains and closes best-effort (errors stay reported via failed()).
  ~SpillFileBackend();

  SpillFileBackend(const SpillFileBackend&) = delete;
  SpillFileBackend& operator=(const SpillFileBackend&) = delete;

  /// Stage `n` bytes; writes the buffer out once it is full.
  void append(const char* data, std::size_t n);

  /// Drain everything staged and flush the stream to the OS.
  void flush();

  /// Drain, flush and close the file.  Idempotent.
  void close();

  /// Sticky: true once any write/flush failed.
  bool failed() const { return error_; }

 private:
  void drain();

  std::ofstream out_;
  std::string buffer_;
  bool closed_ = false;
  bool error_ = false;
};

}  // namespace vstream::telemetry
