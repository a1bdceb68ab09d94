// The fast CSV formatter must be byte-identical to what the writers used
// before: `ostream << double` at default precision (printf %.6g),
// `ostream << integer`, and net::format_ip.  Byte-identity is load-bearing
// — the determinism suite compares whole exported files.
#include "telemetry/fast_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "net/prefix.h"

namespace vstream::telemetry {
namespace {

std::string via_buffer_double(double v) {
  std::ostringstream out;
  {
    WriteBuffer buf(out);
    buf.append_double_g6(v);
  }
  return out.str();
}

std::string via_ostream(double v) {
  std::ostringstream out;
  out << v;  // default precision 6 — the reference the writers used
  return out.str();
}

void expect_double_matches(double v) {
  EXPECT_EQ(via_buffer_double(v), via_ostream(v)) << "value bits differ for "
                                                  << std::hexfloat << v;
  char ref[64];
  std::snprintf(ref, sizeof(ref), "%.6g", v);
  EXPECT_EQ(via_buffer_double(v), std::string(ref))
      << "vs printf for " << std::hexfloat << v;
}

TEST(FastFormatTest, DoubleMatchesOstreamOnSpecials) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.5,
                          123.456,
                          -123.456,
                          999999.0,
                          -999999.0,
                          1000000.0,
                          999999.5,
                          1e-4,
                          9.9999e-5,
                          1e6,
                          1e7,
                          1.5e300,
                          5e-324,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          1234.5,
                          0.1,
                          0.125,
                          3.0 / 7.0,
                          100000.5,
                          99999.96,
                          500.0,
                          1536.25};
  for (const double v : cases) expect_double_matches(v);
}

TEST(FastFormatTest, DoubleMatchesOstreamOnRandomTelemetryRanges) {
  std::mt19937_64 gen(20160516);
  // The ranges telemetry actually emits: millisecond timestamps, rates,
  // distances, fps — plus raw uniform magnitudes for the fallback path.
  const double scales[] = {1.0, 10.0, 1e3, 1e5, 1e7, 1e-3};
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const double scale : scales) {
    for (int i = 0; i < 20000; ++i) {
      const double v = unit(gen) * scale;
      expect_double_matches(v);
      expect_double_matches(-v);
      // Quantized values (the common case for simulated clocks).
      expect_double_matches(std::round(v * 16.0) / 16.0);
      expect_double_matches(std::round(v * 1000.0) / 1000.0);
    }
  }
}

TEST(FastFormatTest, DoubleMatchesOstreamOnRandomBitPatterns) {
  std::mt19937_64 gen(42);
  int tested = 0;
  while (tested < 50000) {
    double v;
    const std::uint64_t bits = gen();
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isnan(v)) continue;  // NaN text is platform-defined either way
    expect_double_matches(v);
    ++tested;
  }
}

// ---- the fixed-point fast path against printf %.6g
//
// append_double_g6 rounds |v| in [1e-4, 1e6) to six digits in double
// arithmetic and leaves near-ties and decade carries to std::to_chars.
// These sweeps aim at exactly those edges, on both signs.

/// Formats through a WriteBuffer on a std::string and compares with
/// snprintf; reports the first few mismatches and counts the rest.
class PrintfOracle {
 public:
  void check(double v) {
    check_one(v);
    check_one(-v);
  }
  /// `v` and its `ulps` neighbours on either side.
  void check_around(double v, int ulps) {
    for (int i = 0; i < ulps; ++i) v = std::nextafter(v, 0.0);
    for (int i = 0; i <= 2 * ulps; ++i) {
      check(v);
      v = std::nextafter(v, std::numeric_limits<double>::infinity());
    }
  }
  std::size_t checked() const { return checked_; }
  ~PrintfOracle() { EXPECT_EQ(mismatches_, 0u) << "of " << checked_; }

 private:
  void check_one(double v) {
    text_.clear();
    {
      WriteBuffer buf(text_);
      buf.append_double_g6(v);
    }
    char ref[64];
    std::snprintf(ref, sizeof(ref), "%.6g", v);
    ++checked_;
    if (text_ != ref && ++mismatches_ <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": got " << text_ << ", printf "
                    << ref;
    }
  }
  std::string text_;
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

/// 10^e for e in [-6, 8], the nearest double for negative e.
double pow10(int e) {
  return e >= 0 ? std::pow(10.0, e) : 1.0 / std::pow(10.0, -e);
}

TEST(FastFormatTest, DoubleMatchesPrintfAroundRoundingTies) {
  // The six-digit ties of each decade [10^e, 10^(e+1)) for e in [-5, 6]
  // are (m + 0.5) * 10^(e-5), m in [1e5, 1e6): check the double nearest
  // each sampled tie and its one-ulp neighbours.
  PrintfOracle oracle;
  std::mt19937_64 gen(8312);
  std::uniform_int_distribution<int> mantissa(100000, 999999);
  for (int e = -5; e <= 6; ++e) {
    for (int i = 0; i < 20000; ++i) {
      const int m = i == 0 ? 100000 : i == 1 ? 999999 : mantissa(gen);
      const double scale = pow10(5 - e);  // exact for e <= 5
      const double tie = e <= 5 ? (m + 0.5) / scale : (m + 0.5) * 10.0;
      oracle.check_around(tie, 1);
    }
  }
  EXPECT_EQ(oracle.checked(), 12u * 20000u * 3u * 2u);
}

TEST(FastFormatTest, DoubleMatchesPrintfAroundPowersOfTen) {
  PrintfOracle oracle;
  for (int e = -6; e <= 8; ++e) oracle.check_around(pow10(e), 4);
}

TEST(FastFormatTest, DoubleMatchesPrintfWhereRoundingCarriesADecade) {
  // 9.999995 * 10^e rounds up into the next decade (9.999996 -> "10",
  // 999999.7 -> "1e+06"); the fast path must hand these to to_chars.
  PrintfOracle oracle;
  for (const double v : {9.999995, 99999.95, 999999.5, 9.999996, 999999.7,
                         0.000999999, 0.00999995, 99.99995}) {
    oracle.check_around(v, 3);
  }
  for (int e = -5; e <= 5; ++e) {
    oracle.check_around(9.999995 * pow10(e), 3);
    oracle.check_around(9.9999949 * pow10(e), 1);
    oracle.check_around(9.9999951 * pow10(e), 1);
  }
}

TEST(FastFormatTest, DoubleMatchesPrintfOnTelemetryShapedLognormals) {
  // The shapes of the CSV's doubles: srtt and rttvar (ms), snapshot and
  // chunk timestamps (ms since session start), first-byte and wait delays.
  PrintfOracle oracle;
  std::mt19937_64 gen(1607'01172);
  std::lognormal_distribution<double> srtt(std::log(60.0), 0.8);
  std::lognormal_distribution<double> rttvar(std::log(8.0), 1.2);
  std::lognormal_distribution<double> at_ms(std::log(200'000.0), 1.5);
  std::lognormal_distribution<double> delay(std::log(5.0), 2.0);
  for (int i = 0; i < 250'000; ++i) {  // 1M values, each on both signs
    oracle.check(srtt(gen));
    oracle.check(rttvar(gen));
    oracle.check(at_ms(gen));
    oracle.check(delay(gen));
  }
  EXPECT_EQ(oracle.checked(), 2'000'000u);
}

TEST(FastFormatTest, StringSinkAppendsAfterExistingText) {
  std::string text = "header\n";
  std::string expected = text;
  {
    WriteBuffer buf(text);
    for (int i = 0; i < 20000; ++i) {  // several growths
      buf.append_u64(static_cast<std::uint64_t>(i));
      buf.append(',');
      buf.append_double_g6(i / 8.0);
      buf.append('\n');
      std::ostringstream row;
      row << i << ',' << i / 8.0 << '\n';
      expected += row.str();
    }
  }
  EXPECT_EQ(text, expected);
}

TEST(FastFormatTest, U64MatchesToString) {
  std::ostringstream out;
  {
    WriteBuffer buf(out);
    std::mt19937_64 gen(7);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = gen() >> (gen() % 64);
      buf.append_u64(v);
      buf.append('\n');
    }
    buf.append_u64(0);
    buf.append('\n');
    buf.append_u64(std::numeric_limits<std::uint64_t>::max());
  }
  std::istringstream in(out.str());
  std::mt19937_64 gen(7);
  std::string line;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, std::to_string(gen() >> (gen() % 64)));
  }
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "0");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "18446744073709551615");
}

TEST(FastFormatTest, IpMatchesFormatIp) {
  std::mt19937_64 gen(11);
  for (int i = 0; i < 2000; ++i) {
    const auto ip = static_cast<std::uint32_t>(gen());
    std::ostringstream out;
    {
      WriteBuffer buf(out);
      buf.append_ip(ip);
    }
    EXPECT_EQ(out.str(), net::format_ip(ip));
  }
  for (const std::uint32_t ip : {0u, 0xFFFFFFFFu, 0x01020304u, 0x7F000001u}) {
    std::ostringstream out;
    {
      WriteBuffer buf(out);
      buf.append_ip(ip);
    }
    EXPECT_EQ(out.str(), net::format_ip(ip));
  }
}

TEST(FastFormatTest, SmallBufferFlushesKeepBytesInOrder) {
  std::ostringstream out;
  std::string expected;
  {
    WriteBuffer buf(out, /*capacity=*/1);  // clamped to the minimum; forces
                                           // a flush on nearly every append
    for (int i = 0; i < 500; ++i) {
      buf.append_u64(static_cast<std::uint64_t>(i) * 977);
      buf.append(',');
      buf.append("field");
      buf.append('\n');
      expected += std::to_string(i * 977) + ",field\n";
    }
  }
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace vstream::telemetry
