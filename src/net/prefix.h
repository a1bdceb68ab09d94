// IPv4 addresses and /24 prefix aggregation.
//
// The paper aggregates sessions into /24 client prefixes for the persistent
// network-problem analyses (§4.2: "most allocated blocks and BGP prefixes
// are /24 prefixes").  We mirror that: client IPs are synthetic but prefix
// arithmetic is the real thing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace vstream::net {

using IpV4 = std::uint32_t;

/// The /24 network containing an address, kept in the same integer form
/// (low 8 bits zeroed).
using Prefix24 = std::uint32_t;

constexpr IpV4 make_ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                       std::uint8_t d) {
  return (static_cast<IpV4>(a) << 24) | (static_cast<IpV4>(b) << 16) |
         (static_cast<IpV4>(c) << 8) | d;
}

constexpr Prefix24 prefix24_of(IpV4 ip) { return ip & 0xFFFFFF00u; }

/// Dotted-quad formatting, e.g. "192.0.2.17".
std::string format_ip(IpV4 ip);

/// Prefix formatting, e.g. "192.0.2.0/24".
std::string format_prefix24(Prefix24 prefix);

/// Parse a dotted quad of four 1-3-digit octets <= 255 with nothing
/// around them (no sign, no blank); throws std::invalid_argument on
/// anything else.
IpV4 parse_ip(std::string_view text);

}  // namespace vstream::net
