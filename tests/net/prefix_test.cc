#include "net/prefix.h"

#include <gtest/gtest.h>

namespace vstream::net {
namespace {

TEST(PrefixTest, MakeIpRoundTrips) {
  const IpV4 ip = make_ip(192, 0, 2, 17);
  EXPECT_EQ(format_ip(ip), "192.0.2.17");
  EXPECT_EQ(parse_ip("192.0.2.17"), ip);
}

TEST(PrefixTest, Prefix24MasksHostBits) {
  const IpV4 ip = make_ip(10, 20, 30, 199);
  EXPECT_EQ(prefix24_of(ip), make_ip(10, 20, 30, 0));
}

TEST(PrefixTest, SamePrefixForSameSlash24) {
  EXPECT_EQ(prefix24_of(make_ip(10, 1, 2, 3)), prefix24_of(make_ip(10, 1, 2, 250)));
  EXPECT_NE(prefix24_of(make_ip(10, 1, 2, 3)), prefix24_of(make_ip(10, 1, 3, 3)));
}

TEST(PrefixTest, FormatPrefix24) {
  EXPECT_EQ(format_prefix24(prefix24_of(make_ip(203, 0, 113, 77))),
            "203.0.113.0/24");
}

TEST(PrefixTest, ParseRejectsMalformed) {
  EXPECT_THROW(parse_ip(""), std::invalid_argument);
  EXPECT_THROW(parse_ip("1.2.3"), std::invalid_argument);
  EXPECT_THROW(parse_ip("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(parse_ip("256.1.1.1"), std::invalid_argument);
  EXPECT_THROW(parse_ip("a.b.c.d"), std::invalid_argument);
}

TEST(PrefixTest, ParseRejectsSignsBlanksAndLongOctets) {
  for (const char* text :
       {"+20.0.116.155", " 20.0.116.155", "20.0.116.155 ", "20.0.+116.155",
        "20.0. 116.155", "20.0.-116.155", "20..116.155", "20.0.116.",
        ".20.0.116.155", "20.0.116.0155", "20.0.116.155\n", "20,0,116,155"}) {
    EXPECT_THROW(parse_ip(text), std::invalid_argument) << "'" << text << "'";
  }
  EXPECT_EQ(parse_ip("020.000.116.155"), make_ip(20, 0, 116, 155));
}

TEST(PrefixTest, ExtremeValues) {
  EXPECT_EQ(format_ip(make_ip(0, 0, 0, 0)), "0.0.0.0");
  EXPECT_EQ(format_ip(make_ip(255, 255, 255, 255)), "255.255.255.255");
  EXPECT_EQ(parse_ip("255.255.255.255"), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace vstream::net
