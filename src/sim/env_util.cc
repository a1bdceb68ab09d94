#include "sim/env_util.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace vstream::sim {

std::uint64_t parse_uint(const char* name, const std::string& raw,
                         std::uint64_t min, std::uint64_t max) {
  // strtoull alone would accept a sign (wrapping "-1" to 2^64 - 1) and
  // leading blanks, so require digits only before it runs.
  const bool digits = !raw.empty() && raw.find_first_not_of("0123456789") ==
                                          std::string::npos;
  errno = 0;
  const unsigned long long parsed =
      digits ? std::strtoull(raw.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE || parsed < min || parsed > max) {
    const std::string range =
        max == std::numeric_limits<std::uint64_t>::max()
            ? ">= " + std::to_string(min)
            : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    throw std::runtime_error(std::string(name) + " must be an integer " +
                             range + ", got \"" + raw + "\"");
  }
  return parsed;
}

double parse_positive_double(const char* name, const std::string& raw) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed) || !(parsed > 0.0)) {
    throw std::runtime_error(std::string(name) +
                             " must be a positive number, got \"" + raw +
                             "\"");
  }
  return parsed;
}

std::size_t positive_env(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return static_cast<std::size_t>(parse_uint(name, raw));
}

std::string string_env(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? std::string(raw) : fallback;
}

}  // namespace vstream::sim
