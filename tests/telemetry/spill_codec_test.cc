#include "telemetry/spill_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace vstream::telemetry::codec {
namespace {

Reader reader_over(const std::string& buf) {
  return Reader{buf.data(), buf.data() + buf.size()};
}

// The decoders store each value through a callback; these collect a
// column into a vector that ends up holding exactly the n values.

void decode_int_column(Reader& r, std::size_t n,
                       std::vector<std::uint64_t>& out) {
  out.assign(n, 0);
  codec::decode_int_column(r, n,
                           [&](std::size_t i, std::uint64_t v) { out[i] = v; });
}

void decode_f64_column(Reader& r, std::size_t n,
                       std::vector<std::uint64_t>& out) {
  out.assign(n, 0);
  codec::decode_f64_column(r, n,
                           [&](std::size_t i, std::uint64_t v) { out[i] = v; });
}

void decode_bool_column(Reader& r, std::size_t n,
                        std::vector<std::uint8_t>& out) {
  out.assign(n, 0);
  codec::decode_bool_column(r, n,
                            [&](std::size_t i, bool v) { out[i] = v ? 1 : 0; });
}

// ------------------------------------------------------------------ varint

TEST(SpillCodecVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7F,
                                  0x80,
                                  0x3FFF,
                                  0x4000,
                                  0xFFFFFFFFull,
                                  0x123456789ABCDEFull,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::string buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    Reader r = reader_over(buf);
    EXPECT_EQ(get_varint(r), v);
    EXPECT_EQ(r.p, r.end) << "trailing bytes for " << v;
  }
}

TEST(SpillCodecVarint, RejectsOverflowAndTruncation) {
  {
    // 10 continuation groups with a 10th byte > 1 would need 65+ bits.
    const std::string buf(10, static_cast<char>(0xFF));
    Reader r = reader_over(buf);
    EXPECT_THROW(get_varint(r), std::runtime_error);
  }
  {
    const std::string buf(3, static_cast<char>(0x80));  // never terminates
    Reader r = reader_over(buf);
    EXPECT_THROW(get_varint(r), std::runtime_error);
  }
}

// ------------------------------------------------------------------ zigzag

TEST(SpillCodecZigzag, SmallMagnitudesMapToSmallCodes) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(static_cast<std::uint64_t>(-1)), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(static_cast<std::uint64_t>(-2)), 3u);
  EXPECT_EQ(zigzag(2), 4u);
}

TEST(SpillCodecZigzag, RoundTripsEveryBitPattern) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng();
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  EXPECT_EQ(unzigzag(zigzag(std::numeric_limits<std::uint64_t>::max())),
            std::numeric_limits<std::uint64_t>::max());
}

// ------------------------------------------------------------- int columns

std::vector<std::uint64_t> int_round_trip(
    const std::vector<std::uint64_t>& v) {
  std::string buf;
  encode_int_column(buf, v);
  Reader r = reader_over(buf);
  std::vector<std::uint64_t> out;
  decode_int_column(r, v.size(), out);
  EXPECT_EQ(r.p, r.end) << "column left trailing bytes";
  return out;
}

TEST(SpillCodecIntColumn, ConstColumnIsTiny) {
  const std::vector<std::uint64_t> v(1000, 7);
  std::string buf;
  encode_int_column(buf, v);
  EXPECT_EQ(buf.size(), 2u);  // mode byte + varint(7)
  EXPECT_EQ(int_round_trip(v), v);
}

TEST(SpillCodecIntColumn, MonotoneIdsDeltaCompress) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < 500; ++i) v.push_back(1'000'000 + i * 2);
  std::string buf;
  encode_int_column(buf, v);
  // First delta is large, the rest are one byte each.
  EXPECT_LE(buf.size(), 1 + 4 + (v.size() - 1));
  EXPECT_EQ(int_round_trip(v), v);
}

TEST(SpillCodecIntColumn, RoundTripsRandomAndAdversarialValues) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> v;
  for (int i = 0; i < 997; ++i) v.push_back(rng());
  v.push_back(0);
  v.push_back(std::numeric_limits<std::uint64_t>::max());
  v.push_back(0);  // max -> 0 wraps: exercises wrapping delta arithmetic
  EXPECT_EQ(int_round_trip(v), v);
}

TEST(SpillCodecIntColumn, EmptyColumnWritesNothing) {
  std::string buf;
  encode_int_column(buf, {});
  EXPECT_TRUE(buf.empty());
  Reader r = reader_over(buf);
  std::vector<std::uint64_t> out{1, 2, 3};
  decode_int_column(r, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpillCodecIntColumn, RejectsUnknownModeAndTruncation) {
  {
    std::string buf;
    buf.push_back(9);  // no such mode
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_int_column(r, 3, out), std::runtime_error);
  }
  {
    std::string buf;
    encode_int_column(buf, {1, 1000, 5});
    buf.resize(buf.size() - 1);
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_int_column(r, 3, out), std::runtime_error);
  }
}

// ------------------------------------------------------------- f64 columns

std::vector<std::uint64_t> f64_round_trip(
    const std::vector<std::uint64_t>& bits) {
  std::string buf;
  encode_f64_column(buf, bits);
  Reader r = reader_over(buf);
  std::vector<std::uint64_t> out;
  decode_f64_column(r, bits.size(), out);
  EXPECT_EQ(r.p, r.end) << "column left trailing bytes";
  return out;
}

TEST(SpillCodecF64Column, ConstColumnIsNineBytes) {
  const std::vector<std::uint64_t> bits(256, 0x3FF0000000000000ull);  // 1.0
  std::string buf;
  encode_f64_column(buf, bits);
  EXPECT_EQ(buf.size(), 9u);
  EXPECT_EQ(f64_round_trip(bits), bits);
}

TEST(SpillCodecF64Column, RoundTripsExtremePatterns) {
  const std::vector<std::uint64_t> bits = {
      0x7FF8000000000000ull,  // quiet NaN
      0x7FF0000000000001ull,  // signaling NaN
      0xFFFFFFFFFFFFFFFFull,  // negative NaN, all-ones payload
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x8000000000000000ull,  // -0.0
      0x0000000000000000ull,  // +0.0
      0x0000000000000001ull,  // min denormal
      0x000FFFFFFFFFFFFFull,  // max denormal
      0x7FEFFFFFFFFFFFFFull,  // max finite
      0x0000000000000000ull,  // repeat: zero xor-delta path
      0x0000000000000000ull,
  };
  EXPECT_EQ(f64_round_trip(bits), bits);
}

TEST(SpillCodecF64Column, RoundTripsFullEntropyMantissas) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> bits;
  for (int i = 0; i < 1'003; ++i) bits.push_back(rng());
  EXPECT_EQ(f64_round_trip(bits), bits);
}

TEST(SpillCodecF64Column, ExpModeBeatsXorOnFullEntropyMantissas) {
  // Same exponent, random mantissas: xor degrades toward 8-9 B/value, the
  // exponent-split stays near the 6.5 B/value mantissa floor.
  std::mt19937_64 rng(13);
  std::vector<std::uint64_t> bits;
  for (int i = 0; i < 512; ++i) {
    bits.push_back(0x4050000000000000ull |
                   (rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  std::string buf;
  encode_f64_column(buf, bits);
  ASSERT_FALSE(buf.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), kModeExp);
  // 52/8 = 6.5 B of mantissa + one exponent-delta byte = 7.5 B/value,
  // below both raw (8) and xor-on-noise (~9).
  EXPECT_LE(buf.size(), bits.size() * 15 / 2 + 16);
  EXPECT_EQ(f64_round_trip(bits), bits);
}

TEST(SpillCodecF64Column, XorModeWinsOnSlowlyChangingValues) {
  // Millisecond timestamps ticking upward: high bytes stable, xor deltas
  // short.
  std::vector<std::uint64_t> bits;
  double t = 14'000.0;
  for (int i = 0; i < 512; ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(t));
    t += 0.5;
  }
  std::string buf;
  encode_f64_column(buf, bits);
  ASSERT_FALSE(buf.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), kModeXor);
  EXPECT_LT(buf.size(), bits.size() * 4);  // far below raw 8 B/value
  EXPECT_EQ(f64_round_trip(bits), bits);
}

TEST(SpillCodecF64Column, RejectsDamage) {
  {
    std::string buf;
    buf.push_back(7);  // no such mode
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_f64_column(r, 2, out), std::runtime_error);
  }
  {
    // xor ctrl byte claiming 8 trailing-zero bytes + 8 significant bytes.
    std::string buf;
    buf.push_back(static_cast<char>(kModeXor));
    buf.push_back(static_cast<char>(1 + 8 * 8 + 7));
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_f64_column(r, 1, out), std::runtime_error);
  }
  {
    // exp mode with an exponent delta escaping 12 bits.
    std::string buf;
    buf.push_back(static_cast<char>(kModeExp));
    put_varint(buf, zigzag(5000));
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_f64_column(r, 1, out), std::runtime_error);
  }
  {
    std::string buf;
    encode_f64_column(buf, {1, 2, 3});  // bit patterns, not doubles — fine
    buf.resize(buf.size() - 1);
    Reader r = reader_over(buf);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(decode_f64_column(r, 3, out), std::runtime_error);
  }
}

// ------------------------------------------------------------ bool columns

TEST(SpillCodecBoolColumn, ConstAndPackedRoundTrip) {
  {
    const std::vector<std::uint8_t> v(77, 1);
    std::string buf;
    encode_bool_column(buf, v);
    EXPECT_EQ(buf.size(), 2u);
    Reader r = reader_over(buf);
    std::vector<std::uint8_t> out;
    decode_bool_column(r, v.size(), out);
    EXPECT_EQ(out, v);
  }
  {
    std::vector<std::uint8_t> v;
    std::mt19937_64 rng(3);
    for (int i = 0; i < 333; ++i) v.push_back(rng() & 1);
    v[0] = 0;
    v[1] = 1;  // force non-const
    std::string buf;
    encode_bool_column(buf, v);
    EXPECT_EQ(buf.size(), 1 + (v.size() + 7) / 8);
    Reader r = reader_over(buf);
    std::vector<std::uint8_t> out;
    decode_bool_column(r, v.size(), out);
    EXPECT_EQ(out, v);
    EXPECT_EQ(r.p, r.end);
  }
}

TEST(SpillCodecBoolColumn, RejectsUnknownMode) {
  std::string buf;
  buf.push_back(5);
  Reader r = reader_over(buf);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(decode_bool_column(r, 1, out), std::runtime_error);
}

// ---------------------------------------------------------------- strings

TEST(SpillCodecString, RoundTripsIncludingEmbeddedNulAndTruncates) {
  const std::string s = std::string("Mozilla/5.0\0 (X11)", 18);
  std::string buf;
  put_string(buf, s);
  Reader r = reader_over(buf);
  EXPECT_EQ(get_string(r), s);
  EXPECT_EQ(r.p, r.end);

  // A length varint pointing past the buffer must throw, not over-read.
  std::string bad;
  put_varint(bad, 1'000'000);
  bad += "short";
  Reader rb = reader_over(bad);
  EXPECT_THROW(get_string(rb), std::runtime_error);
}

}  // namespace
}  // namespace vstream::telemetry::codec
