#include "telemetry/spill_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "sim/host_error.h"

namespace vstream::telemetry {

// --------------------------------------------------------------- read side

SpillMapping::SpillMapping(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("spill: cannot open " + path.string());
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("spill: cannot stat " + path.string());
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ == 0) {  // mmap rejects empty mappings; nothing to read anyway
    ::close(fd);
    return;
  }
  void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) {
    throw sim::HostIoError("spill: cannot map " + path.string());
  }
  ::madvise(base, size_, MADV_SEQUENTIAL);
  data_ = static_cast<const char*>(base);
}

void SpillMapping::release(std::uint64_t offset) {
  static const std::uint64_t page =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t end = std::min(offset, size_) / page * page;
  if (end < released_ + (std::uint64_t{4} << 20)) return;
  ::madvise(const_cast<char*>(data_) + released_, end - released_,
            MADV_DONTNEED);
  released_ = end;
}

SpillMapping::~SpillMapping() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

// -------------------------------------------------------------- write side

SpillFileBackend::SpillFileBackend(const std::filesystem::path& path,
                                   bool truncate)
    : out_(path, std::ios::binary | (truncate ? std::ios::trunc
                                              : std::ios::app)) {
  if (!out_) {
    throw sim::HostIoError("spill: cannot open " + path.string() +
                           " for writing");
  }
  buffer_.reserve(kSpillIoBufferBytes + kSpillIoBufferBytes / 4);
}

SpillFileBackend::~SpillFileBackend() { close(); }

void SpillFileBackend::drain() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
  if (out_.fail()) error_ = true;
}

void SpillFileBackend::append(const char* data, std::size_t n) {
  buffer_.append(data, n);
  if (buffer_.size() >= kSpillIoBufferBytes) drain();
}

void SpillFileBackend::flush() {
  if (closed_) return;
  drain();
  out_.flush();
  if (out_.fail()) error_ = true;
}

void SpillFileBackend::close() {
  if (closed_) return;
  closed_ = true;
  drain();
  out_.close();
  if (out_.fail()) error_ = true;
}

}  // namespace vstream::telemetry
