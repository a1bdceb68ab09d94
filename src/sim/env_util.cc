#include "sim/env_util.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace vstream::sim {

std::size_t positive_env(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || parsed == 0 ||
      raw[0] == '-') {
    throw std::runtime_error(std::string(name) + " must be a positive " +
                             "integer, got \"" + raw + "\"");
  }
  return static_cast<std::size_t>(parsed);
}

std::string string_env(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? std::string(raw) : fallback;
}

}  // namespace vstream::sim
