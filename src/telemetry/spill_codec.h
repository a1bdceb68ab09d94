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
// Encoders grow their output once per column by the column's worst case,
// write through a pointer and trim to what they wrote.  Decoders hand
// each value to a `store(i, value)` callback, so a caller can decode
// straight into record fields.
//
// All decoders are bounds-checked (once per value, or once per column
// where the column's size is known up front) and throw std::runtime_error
// on any malformed input (truncation, unknown mode, out-of-range exponent
// or xor control byte, varint overflow) — never UB.  The corruption fuzz
// runs them under ASan+UBSan on every 1-byte mutation of real files.
// Every encoder/decoder pair round-trips bit-exactly, including NaN
// payloads, ±inf and denormals: doubles only ever move as raw bit
// patterns.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/le_bytes.h"

namespace vstream::telemetry::codec {

inline constexpr std::uint8_t kModeConst = 0;
inline constexpr std::uint8_t kModeDelta = 1;  ///< int columns
inline constexpr std::uint8_t kModeXor = 1;    ///< f64 columns
inline constexpr std::uint8_t kModeExp = 2;    ///< f64 columns
inline constexpr std::uint8_t kModePack = 1;   ///< bool columns

inline constexpr std::size_t kMaxVarintBytes = 10;

[[noreturn]] inline void fail(const char* what) {
  throw std::runtime_error(std::string("spill: ") + what);
}

namespace detail {

/// The `n` (< 8) bytes at `p` as a little-endian integer.
inline std::uint64_t load_le_partial(const char* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

inline void store_le64(char* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

/// Grow `out` by `n` bytes and return where they start.
inline char* grow(std::string& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// Trim `out` to end at `w`, the write pointer of the last grow().
inline void trim(std::string& out, const char* w) {
  out.resize(static_cast<std::size_t>(w - out.data()));
}

template <typename T>
bool all_equal(const std::vector<T>& v) {
  return std::equal(v.begin() + 1, v.end(), v.begin());
}

}  // namespace detail

/// Bounds-checked read cursor over one encoded column region.
struct Reader {
  const char* p;
  const char* end;

  std::size_t left() const { return static_cast<std::size_t>(end - p); }
  void need(std::size_t n) const {
    if (left() < n) fail("truncated column data");
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint64_t raw_u64() {
    need(8);
    const std::uint64_t v = load_u64(p);
    p += 8;
    return v;
  }
};

// ----------------------------------------------------------------- varint

/// Write `v` at `w`, which has kMaxVarintBytes of room; returns the end.
inline char* put_varint(char* w, std::uint64_t v) {
  while (v >= 0x80) {
    *w++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *w++ = static_cast<char>(v);
  return w;
}

inline void put_varint(std::string& out, std::uint64_t v) {
  char bytes[kMaxVarintBytes];
  out.append(bytes, put_varint(bytes, v));
}

inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<unsigned>(64 - std::countl_zero(v | 1)) + 6) / 7;
}

inline std::uint64_t get_varint(Reader& r) {
  const std::size_t avail = std::min(r.left(), kMaxVarintBytes);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < avail; ++i) {
    const auto b = static_cast<std::uint8_t>(r.p[i]);
    if (i == 9 && b > 1) fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) {
      r.p += i + 1;
      return v;
    }
  }
  // Ten bytes always end inside the loop (the tenth either terminates or
  // overflows), so only a short read gets here.
  fail("truncated column data");
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
  if (detail::all_equal(v)) {
    char* w = detail::grow(out, 1 + kMaxVarintBytes);
    *w++ = static_cast<char>(kModeConst);
    detail::trim(out, put_varint(w, v[0]));
    return;
  }
  char* w = detail::grow(out, 1 + kMaxVarintBytes * v.size());
  *w++ = static_cast<char>(kModeDelta);
  std::uint64_t prev = 0;
  for (const std::uint64_t x : v) {
    w = put_varint(w, zigzag(x - prev));
    prev = x;
  }
  detail::trim(out, w);
}

template <typename Store>
void decode_int_column(Reader& r, std::size_t n, Store&& store) {
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    const std::uint64_t v = get_varint(r);
    for (std::size_t i = 0; i < n; ++i) store(i, v);
    return;
  }
  if (mode != kModeDelta) fail("unknown int column mode");
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzigzag(get_varint(r));
    store(i, prev);
  }
}

// ------------------------------------------------------------ f64 columns
// Values travel as raw IEEE-754 bit patterns (std::bit_cast at the call
// site), so NaN payloads and signed zeros survive the round trip.

namespace detail {

inline constexpr std::uint64_t kMantissaMask =
    (std::uint64_t{1} << 52) - 1;

/// xor mode's bytes for one x = bits ^ prev: the control byte plus the
/// span from its lowest to its highest non-zero byte.
inline std::size_t xor_bytes(std::uint64_t x) {
  if (x == 0) return 1;
  return 2 + static_cast<unsigned>(63 - std::countl_zero(x)) / 8 -
         static_cast<unsigned>(std::countr_zero(x)) / 8;
}

/// The cheaper of xor and exp mode for a non-constant column, by exact
/// encoded size; a tie goes to xor, the lower mode number.
inline std::uint8_t f64_mode(const std::vector<std::uint64_t>& bits) {
  std::size_t xor_cost = 0;
  std::size_t exp_cost = (52 * bits.size() + 7) / 8;
  std::uint64_t prev = 0;
  std::uint64_t prev_se = 0;
  for (const std::uint64_t b : bits) {
    xor_cost += xor_bytes(b ^ prev);
    prev = b;
    // 12-bit sign+exponents: each zigzag delta is below 2^13, one varint
    // byte or two.
    const std::uint64_t se = b >> 52;
    exp_cost += zigzag(se - prev_se) < 0x80 ? 1 : 2;
    prev_se = se;
  }
  return xor_cost <= exp_cost ? kModeXor : kModeExp;
}

/// Where the first `n` varints at the cursor end: just past their n-th
/// stop byte, counted 8 bytes at a time.
inline const char* skip_varints(const Reader& r, std::size_t n) {
  const char* p = r.p;
  while (n > 0) {
    if (r.end - p >= 8) {
      std::uint64_t stops = ~load_u64(p) & 0x8080808080808080ull;
      // One bit per stop byte, summed into the top byte by a multiply.
      const std::size_t k = ((stops >> 7) * 0x0101010101010101ull) >> 56;
      if (k < n) {
        n -= k;
        p += 8;
        continue;
      }
      for (; n > 1; --n) stops &= stops - 1;
      return p + std::countr_zero(stops) / 8 + 1;
    }
    if (p == r.end) fail("truncated column data");
    if ((*p++ & 0x80) == 0) --n;
  }
  return p;
}

/// One xor-mode value: the control byte and its significant bytes.
inline std::uint64_t get_xor(Reader& r) {
  const std::uint8_t ctrl = r.u8();
  if (ctrl == 0) return 0;
  const unsigned c = ctrl - 1u;
  const unsigned tz = c >> 3;
  const unsigned sig = (c & 7) + 1;
  if (tz + sig > 8) fail("xor control byte out of range");
  r.need(sig);
  const std::uint64_t val =
      r.left() >= 8 ? load_u64(r.p) & (~std::uint64_t{0} >> (64 - 8 * sig))
                    : load_le_partial(r.p, sig);
  r.p += sig;
  return val << (8 * tz);
}

}  // namespace detail

inline void encode_f64_column(std::string& out,
                              const std::vector<std::uint64_t>& bits) {
  if (bits.empty()) return;
  const std::size_t n = bits.size();
  if (detail::all_equal(bits)) {
    char* w = detail::grow(out, 9);
    *w = static_cast<char>(kModeConst);
    detail::store_le64(w + 1, bits[0]);
    return;
  }
  if (detail::f64_mode(bits) == kModeXor) {
    // A value takes at most 9 bytes, and its 8-byte store never passes
    // that bound.
    char* w = detail::grow(out, 1 + 9 * n);
    *w++ = static_cast<char>(kModeXor);
    std::uint64_t prev = 0;
    for (const std::uint64_t b : bits) {
      const std::uint64_t x = b ^ prev;
      prev = b;
      if (x == 0) {
        *w++ = 0;
        continue;
      }
      const unsigned tz = static_cast<unsigned>(std::countr_zero(x)) / 8;
      const std::size_t sig = detail::xor_bytes(x) - 1;
      *w++ = static_cast<char>(1 + 8 * tz + (sig - 1));
      detail::store_le64(w, x >> (8 * tz));
      w += sig;
    }
    detail::trim(out, w);
    return;
  }
  // Sign+exponent deltas (2 varint bytes at most, see f64_mode), then the
  // mantissas: each 52-bit mantissa joins the < 8 bits still pending, one
  // 8-byte store writes them, and the whole bytes among them are kept.
  // 8 bytes of slack cover the store past the last whole byte.
  char* w = detail::grow(out, 1 + 2 * n + (52 * n + 7) / 8 + 8);
  *w++ = static_cast<char>(kModeExp);
  std::uint64_t prev = 0;
  for (const std::uint64_t b : bits) {
    const std::uint64_t se = b >> 52;
    w = put_varint(w, zigzag(se - prev));
    prev = se;
  }
  std::uint64_t acc = 0;
  unsigned nbits = 0;
  for (const std::uint64_t b : bits) {
    acc |= (b & detail::kMantissaMask) << nbits;
    nbits += 52;
    detail::store_le64(w, acc);
    w += nbits / 8;
    acc >>= 8 * (nbits / 8);
    nbits %= 8;
  }
  if (nbits > 0) *w++ = static_cast<char>(acc);
  detail::trim(out, w);
}

template <typename Store>
void decode_f64_column(Reader& r, std::size_t n, Store&& store) {
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    const std::uint64_t v = r.raw_u64();
    for (std::size_t i = 0; i < n; ++i) store(i, v);
    return;
  }
  if (mode == kModeXor) {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev ^= detail::get_xor(r);
      store(i, prev);
    }
    return;
  }
  if (mode != kModeExp) fail("unknown f64 column mode");
  // The mantissas start after the n-th stop byte (high bit clear) of the
  // sign+exponent varints; walk both streams from there.  A malformed
  // varint still fails in the walk, so the accepted set is the same as a
  // full decode's.
  Reader sign_exp = r;
  r.p = detail::skip_varints(r, n);
  const std::size_t bytes = (52 * n + 7) / 8;
  r.need(bytes);
  const char* mantissas = r.p;
  r.p += bytes;
  sign_exp.end = mantissas;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzigzag(get_varint(sign_exp));
    if (prev >= 4096) fail("sign+exponent out of range");
    const char* q = mantissas + 52 * i / 8;
    const std::size_t rest = static_cast<std::size_t>(r.p - q);
    const std::uint64_t word =
        rest >= 8 ? load_u64(q) : detail::load_le_partial(q, rest);
    store(i, (prev << 52) | ((word >> (52 * i % 8)) & detail::kMantissaMask));
  }
}

// ----------------------------------------------------------- bool columns

inline void encode_bool_column(std::string& out,
                               const std::vector<std::uint8_t>& v) {
  if (v.empty()) return;
  if (detail::all_equal(v)) {
    char* w = detail::grow(out, 2);
    w[0] = static_cast<char>(kModeConst);
    w[1] = static_cast<char>(v[0] != 0 ? 1 : 0);
    return;
  }
  char* w = detail::grow(out, 1 + (v.size() + 7) / 8);
  *w++ = static_cast<char>(kModePack);  // grow() zero-filled the bytes
  for (std::size_t i = 0; i < v.size(); ++i) {
    w[i / 8] = static_cast<char>(w[i / 8] | (v[i] != 0 ? 1 : 0) << (i % 8));
  }
}

template <typename Store>
void decode_bool_column(Reader& r, std::size_t n, Store&& store) {
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kModeConst) {
    const bool v = r.u8() != 0;
    for (std::size_t i = 0; i < n; ++i) store(i, v);
    return;
  }
  if (mode != kModePack) fail("unknown bool column mode");
  const std::size_t bytes = (n + 7) / 8;
  r.need(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    store(i, ((static_cast<unsigned char>(r.p[i / 8]) >> (i % 8)) & 1) != 0);
  }
  r.p += bytes;
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
