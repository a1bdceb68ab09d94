#include "net/prefix.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace vstream::net {

std::string format_ip(IpV4 ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

std::string format_prefix24(Prefix24 prefix) {
  return format_ip(prefix) + "/24";
}

IpV4 parse_ip(std::string_view text) {
  const auto malformed = [text] {
    return std::invalid_argument("parse_ip: malformed address: " +
                                 std::string(text));
  };
  // Exactly four dot-separated octets of 1-3 ASCII digits, each <= 255,
  // and nothing else: std::from_chars takes no sign and no blank.
  const char* at = text.data();
  const char* const end = at + text.size();
  IpV4 ip = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (at == end || *at != '.') throw malformed();
      ++at;
    }
    unsigned value = 0;
    const auto [next, error] = std::from_chars(at, end, value);
    if (error != std::errc{} || next - at > 3 || value > 255) throw malformed();
    ip = (ip << 8) | value;
    at = next;
  }
  if (at != end) throw malformed();
  return ip;
}

}  // namespace vstream::net
