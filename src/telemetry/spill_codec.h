// Columnar encoding primitives for the spill format (spill_format.h).
//
// A block payload stores each record field as one *column* with a
// 1-byte mode prefix, chosen per column by exact cost comparison at
// encode time (deterministic: equal costs break toward the lower mode
// number).  The primitives here are value codecs only — framing and CRCs
// live in spill_format.cc, the column order in record_schema.h:
//
//   varint    LEB128, 7 bits per byte, little-endian groups, <= 10 bytes
//   zigzag    maps two's-complement deltas to small unsigned varints
//   int col   mode 0 "const": every value equal, one varint
//             mode 1 "delta": zigzag(v[i] - v[i-1]) varints (v[-1] = 0)
//   f64 col   mode 0 "const": one raw IEEE-754 little-endian u64
//             mode 1 "xor":   per value x = bits ^ prev; ctrl byte 0 when
//                             x == 0, else 1 + 8*tz + (sig-1) followed by
//                             the sig significant bytes of x >> 8*tz
//                             (tz = trailing zero bytes, sig = non-zero
//                             span in bytes)
//             mode 2 "exp":   sign+exponent (top 12 bits) as a zigzag-
//                             delta varint stream, then every 52-bit
//                             mantissa bit-packed LSB-first — wins on
//                             full-entropy mantissas where xor degrades
//                             to ~9 bytes/value
//   bool col  mode 0 "const": one byte
//             mode 1 "pack":  ceil(n/8) bytes, LSB-first
//
// All decoders are bounds-checked and throw std::runtime_error on any
// malformed input (truncation, unknown mode, out-of-range exponent,
// varint overflow) — never UB.  The corruption fuzz runs them under
// ASan+UBSan on every 1-byte mutation of real files.  Every encoder/
// decoder pair round-trips bit-exactly, including NaN payloads, ±inf
// and denormals: doubles only ever move as raw bit patterns.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace vstream::telemetry::codec {

inline constexpr std::uint8_t kModeConst = 0;
inline constexpr std::uint8_t kModeDelta = 1;  ///< int columns
inline constexpr std::uint8_t kModeXor = 1;    ///< f64 columns
inline constexpr std::uint8_t kModeExp = 2;    ///< f64 columns
inline constexpr std::uint8_t kModePack = 1;   ///< bool columns

[[noreturn]] inline void fail(const char* what) {
  throw std::runtime_error(std::string("spill: ") + what);
}

/// Bounds-checked read cursor over one encoded column region.
struct Reader {
  const char* p;
  const char* end;

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      fail("truncated column data");
    }
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint64_t raw_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    p += 8;
    return v;
  }
};

// ----------------------------------------------------------------- varint

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline std::uint64_t get_varint(Reader& r) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 10; ++i) {
    const std::uint8_t b = r.u8();
    if (i == 9 && b > 1) fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
  fail("unterminated varint");
}

// ----------------------------------------------------------------- zigzag
// `u` is a difference computed in wrapping unsigned arithmetic, i.e. the
// two's-complement bit pattern of the signed delta; both directions are
// pure unsigned ops so there is no signed-overflow UB anywhere.

inline std::uint64_t zigzag(std::uint64_t u) {
  return (u << 1) ^ (0 - (u >> 63));
}

inline std::uint64_t unzigzag(std::uint64_t z) {
  return (z >> 1) ^ (0 - (z & 1));
}

// ------------------------------------------------------------ int columns

inline void encode_int_column(std::string& out,
                              const std::vector<std::uint64_t>& v) {
  if (v.empty()) return;
  bool all_equal = true;
  for (const std::uint64_t x : v) {
    if (x != v[0]) {
      all_equal = false;
      break;
    }
  }
  if (all_equal) {
    out.push_back(static_cast<char>(kModeConst));
    put_varint(out, v[0]);
    return;
  }
  out.push_back(static_cast<char>(kModeDelta));
  std::uint64_t prev = 0;
  for (const std::uint64_t x : v) {
    put_varint(out, zigzag(x - prev));
    prev = x;
  }
}

inline void decode_int_column(Reader& r, std::size_t n,
                              std::vector<std::uint64_t>& out) {
  out.clear();
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    out.assign(n, get_varint(r));
    return;
  }
  if (mode != kModeDelta) fail("unknown int column mode");
  out.reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzigzag(get_varint(r));
    out.push_back(prev);
  }
}

// ------------------------------------------------------------ f64 columns
// Values travel as raw IEEE-754 bit patterns (std::bit_cast at the call
// site), so NaN payloads and signed zeros survive the round trip.

namespace detail {

inline unsigned trailing_zero_bytes(std::uint64_t x) {
  unsigned n = 0;
  while ((x & 0xFF) == 0) {
    x >>= 8;
    ++n;
  }
  return n;  // x != 0 guaranteed by caller
}

inline unsigned significant_bytes(std::uint64_t x) {
  unsigned n = 0;
  while (x != 0) {
    x >>= 8;
    ++n;
  }
  return n;
}

/// Bit-packing writer for 52-bit mantissas (LSB-first within bytes).
struct BitWriter {
  std::string& out;
  std::uint64_t acc = 0;
  unsigned nbits = 0;

  explicit BitWriter(std::string& o) : out(o) {}
  void put(std::uint64_t v, unsigned bits) {
    acc |= v << nbits;
    nbits += bits;
    while (nbits >= 8) {
      out.push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      nbits -= 8;
    }
  }
  void finish() {
    if (nbits > 0) out.push_back(static_cast<char>(acc & 0xFF));
    acc = 0;
    nbits = 0;
  }
};

struct BitReader {
  Reader& r;
  std::uint64_t acc = 0;
  unsigned nbits = 0;

  explicit BitReader(Reader& rd) : r(rd) {}
  std::uint64_t get(unsigned bits) {
    while (nbits < bits) {
      acc |= static_cast<std::uint64_t>(r.u8()) << nbits;
      nbits += 8;
    }
    const std::uint64_t v =
        bits == 64 ? acc : acc & ((std::uint64_t{1} << bits) - 1);
    acc >>= bits;
    nbits -= bits;
    return v;
  }
};

inline constexpr std::uint64_t kMantissaMask =
    (std::uint64_t{1} << 52) - 1;

inline std::size_t xor_cost(const std::vector<std::uint64_t>& bits) {
  std::size_t cost = 0;
  std::uint64_t prev = 0;
  for (const std::uint64_t b : bits) {
    const std::uint64_t x = b ^ prev;
    prev = b;
    cost += x == 0 ? 1 : 1 + significant_bytes(x >> (8 * trailing_zero_bytes(x)));
  }
  return cost;
}

inline std::size_t exp_cost(const std::vector<std::uint64_t>& bits) {
  std::size_t cost = (52 * bits.size() + 7) / 8;
  std::uint64_t prev = 0;
  for (const std::uint64_t b : bits) {
    const std::uint64_t se = b >> 52;
    cost += varint_size(zigzag(se - prev));
    prev = se;
  }
  return cost;
}

}  // namespace detail

inline void encode_f64_column(std::string& out,
                              const std::vector<std::uint64_t>& bits) {
  if (bits.empty()) return;
  bool all_equal = true;
  for (const std::uint64_t b : bits) {
    if (b != bits[0]) {
      all_equal = false;
      break;
    }
  }
  if (all_equal) {
    out.push_back(static_cast<char>(kModeConst));
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(bits[0] >> (8 * i)));
    }
    return;
  }
  if (detail::xor_cost(bits) <= detail::exp_cost(bits)) {
    out.push_back(static_cast<char>(kModeXor));
    std::uint64_t prev = 0;
    for (const std::uint64_t b : bits) {
      const std::uint64_t x = b ^ prev;
      prev = b;
      if (x == 0) {
        out.push_back(0);
        continue;
      }
      const unsigned tz = detail::trailing_zero_bytes(x);
      const std::uint64_t val = x >> (8 * tz);
      const unsigned sig = detail::significant_bytes(val);
      out.push_back(static_cast<char>(1 + 8 * tz + (sig - 1)));
      for (unsigned i = 0; i < sig; ++i) {
        out.push_back(static_cast<char>(val >> (8 * i)));
      }
    }
    return;
  }
  out.push_back(static_cast<char>(kModeExp));
  std::uint64_t prev = 0;
  for (const std::uint64_t b : bits) {
    const std::uint64_t se = b >> 52;
    put_varint(out, zigzag(se - prev));
    prev = se;
  }
  detail::BitWriter packer(out);
  for (const std::uint64_t b : bits) {
    packer.put(b & detail::kMantissaMask, 52);
  }
  packer.finish();
}

inline void decode_f64_column(Reader& r, std::size_t n,
                              std::vector<std::uint64_t>& out) {
  out.clear();
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    out.assign(n, r.raw_u64());
    return;
  }
  out.reserve(n);
  if (mode == kModeXor) {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t ctrl = r.u8();
      std::uint64_t x = 0;
      if (ctrl != 0) {
        const unsigned c = ctrl - 1;
        const unsigned tz = c >> 3;
        const unsigned sig = (c & 7) + 1;
        if (tz + sig > 8) fail("xor control byte out of range");
        std::uint64_t val = 0;
        for (unsigned b = 0; b < sig; ++b) {
          val |= static_cast<std::uint64_t>(r.u8()) << (8 * b);
        }
        x = val << (8 * tz);
      }
      prev ^= x;
      out.push_back(prev);
    }
    return;
  }
  if (mode != kModeExp) fail("unknown f64 column mode");
  std::vector<std::uint64_t> sign_exp;
  sign_exp.reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzigzag(get_varint(r));
    if (prev >= 4096) fail("sign+exponent out of range");
    sign_exp.push_back(prev);
  }
  detail::BitReader packer(r);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back((sign_exp[i] << 52) | packer.get(52));
  }
}

// ----------------------------------------------------------- bool columns

inline void encode_bool_column(std::string& out,
                               const std::vector<std::uint8_t>& v) {
  if (v.empty()) return;
  bool all_equal = true;
  for (const std::uint8_t x : v) {
    if (x != v[0]) {
      all_equal = false;
      break;
    }
  }
  if (all_equal) {
    out.push_back(static_cast<char>(kModeConst));
    out.push_back(static_cast<char>(v[0] != 0 ? 1 : 0));
    return;
  }
  out.push_back(static_cast<char>(kModePack));
  std::uint8_t acc = 0;
  unsigned nbits = 0;
  for (const std::uint8_t x : v) {
    acc |= static_cast<std::uint8_t>((x != 0 ? 1 : 0) << nbits);
    if (++nbits == 8) {
      out.push_back(static_cast<char>(acc));
      acc = 0;
      nbits = 0;
    }
  }
  if (nbits > 0) out.push_back(static_cast<char>(acc));
}

inline void decode_bool_column(Reader& r, std::size_t n,
                               std::vector<std::uint8_t>& out) {
  out.clear();
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    out.assign(n, static_cast<std::uint8_t>(r.u8() != 0 ? 1 : 0));
    return;
  }
  if (mode != kModePack) fail("unknown bool column mode");
  out.reserve(n);
  std::uint8_t acc = 0;
  unsigned nbits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (nbits == 0) {
      acc = r.u8();
      nbits = 8;
    }
    out.push_back(acc & 1);
    acc >>= 1;
    --nbits;
  }
}

// --------------------------------------------------------- string columns
// Strings do not benefit from a mode byte: length varint + raw bytes.

inline void put_string(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out.append(s);
}

inline std::string get_string(Reader& r) {
  const std::uint64_t len = get_varint(r);
  r.need(len);
  std::string s(r.p, len);
  r.p += len;
  return s;
}

}  // namespace vstream::telemetry::codec
