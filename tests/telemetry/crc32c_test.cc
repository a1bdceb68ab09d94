// CRC32C known-answer tests against the RFC 3720 §B.4 vectors, plus the
// classic "123456789" check value and incremental-extension properties.
// The spill format and checkpoint sidecars both stake their corruption
// detection on this helper, so it is validated against external ground
// truth, not just round trips, and its instruction path against its
// table path.
#include "telemetry/crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace vstream::telemetry {
namespace {

TEST(Crc32cTest, Rfc3720ZeroBlock) {
  std::array<unsigned char, 32> bytes{};
  bytes.fill(0x00);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, Rfc3720OnesBlock) {
  std::array<unsigned char, 32> bytes{};
  bytes.fill(0xFF);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, Rfc3720AscendingBlock) {
  std::array<unsigned char, 32> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, Rfc3720DescendingBlock) {
  std::array<unsigned char, 32> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, Rfc3720ScsiReadCommand) {
  const std::array<unsigned char, 48> pdu = {
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,  //
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18,  //
      0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
  };
  EXPECT_EQ(crc32c(pdu.data(), pdu.size()), 0xD9963A56u);
}

TEST(Crc32cTest, ClassicCheckString) {
  // The standard CRC "check" input: every CRC catalogue lists 0xE3069283
  // for CRC-32C over the ASCII digits 1-9.
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(crc32c(nullptr, 0), 0x00000000u);
}

TEST(Crc32cTest, ExtendMatchesOneShotAtEverySplitPoint) {
  const std::string data = "vstream spill frame payload \x00\x01\xFE test";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = kCrc32cInit;
    state = crc32c_extend(state, data.data(), split);
    state = crc32c_extend(state, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_finalize(state), whole) << "split=" << split;
  }
}

TEST(Crc32cTest, EveryBitFlipChangesTheChecksum) {
  // Single-bit and single-byte errors must never alias: flip each byte of
  // a buffer and require a different CRC every time.
  std::vector<unsigned char> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const std::uint32_t clean = crc32c(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<unsigned char>(1 << bit);
      EXPECT_NE(crc32c(data.data(), data.size()), clean)
          << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<unsigned char>(1 << bit);
    }
  }
}

// crc32c_extend runs on the CPU's CRC32C instruction where it has one;
// these hold it to the portable table path, which is what every other
// test above checks against external vectors.  On a host without the
// instruction both sides are the tables and the tests still run.

std::uint32_t portable(const void* data, std::size_t n) {
  return crc32c_finalize(crc32c_extend_portable(kCrc32cInit, data, n));
}

TEST(Crc32cDispatchTest, MatchesPortableOnTheRfc3720Vectors) {
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  ones.fill(0xFF);
  std::array<unsigned char, 32> ascending{};
  std::array<unsigned char, 32> descending{};
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  const std::pair<const std::array<unsigned char, 32>*, std::uint32_t>
      vectors[] = {{&zeros, 0x8A9136AAu},
                   {&ones, 0x62A8AB43u},
                   {&ascending, 0x46DD794Eu},
                   {&descending, 0x113FDB5Cu}};
  for (const auto& [bytes, want] : vectors) {
    EXPECT_EQ(crc32c(bytes->data(), bytes->size()), want);
    EXPECT_EQ(portable(bytes->data(), bytes->size()), want);
  }
}

TEST(Crc32cDispatchTest, ExtendMatchesPortableAtEverySplitPoint) {
  std::vector<unsigned char> data(67);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 29 + 11);
  }
  const std::uint32_t whole = portable(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = crc32c_extend(kCrc32cInit, data.data(), split);
    state = crc32c_extend(state, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_finalize(state), whole) << "split=" << split;
    // Mixed chains: one piece on each path.
    state = crc32c_extend_portable(kCrc32cInit, data.data(), split);
    state = crc32c_extend(state, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_finalize(state), whole) << "split=" << split;
  }
}

TEST(Crc32cDispatchTest, MatchesPortableAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(3720);
  std::vector<unsigned char> buffer(300 + 8);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buffer.data() + align;
      ASSERT_EQ(crc32c(p, len), portable(p, len))
          << "align " << align << " len " << len;
    }
  }
}

}  // namespace
}  // namespace vstream::telemetry
