#include "telemetry/fast_format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>

namespace vstream::telemetry {

namespace {

/// Backward digit loop; returns the end of the written text.
char* write_u64(char* p, std::uint64_t value) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (n > 0) *p++ = tmp[--n];
  return p;
}

/// 10^0 .. 10^9, each exact in a double.
constexpr double kPow10[10] = {1.0, 1e1, 1e2, 1e3, 1e4,
                               1e5, 1e6, 1e7, 1e8, 1e9};

/// std::nearbyint for 0 <= x < 2^51 in the default rounding mode, without
/// the libm call: x + 2^52 has no fraction bits left, so the addition
/// itself rounds half-to-even, and subtracting 2^52 again is exact.
double round_to_integer(double x) { return (x + 0x1p52) - 0x1p52; }

/// %.6g of a non-integer `av` in [1e-4, 1e6), written at `p`; nullptr
/// when only the exact decimal expansion can decide the text (see the
/// header): the caller then takes std::to_chars.
char* write_g6_fixed(char* p, double av) {
  // The decade d, 10^d <= av < 10^(d+1).  The constants 1e-1 .. 1e-4 are
  // the doubles just above those powers and no double lies between, so
  // the comparisons place every double exactly and the scaled value is at
  // least 1e5.
  const int d = av >= 1.0 ? (av >= 1e3 ? (av >= 1e5 ? 5 : av >= 1e4 ? 4 : 3)
                                       : (av >= 1e2 ? 2 : av >= 1e1 ? 1 : 0))
                          : (av >= 1e-2 ? (av >= 1e-1 ? -1 : -2)
                                        : (av >= 1e-3 ? -3 : -4));
  // One rounding, relative error <= 2^-53: under 1.2e-10 absolute here.
  const double scaled = av * kPow10[5 - d];
  const double rounded = round_to_integer(scaled);
  if (std::abs(scaled - rounded) >= 0.5 - 1e-6 || rounded >= 1e6) {
    return nullptr;
  }
  auto units = static_cast<std::uint32_t>(rounded);
  char digits[6];
  for (int i = 5; i >= 0; --i) {
    digits[i] = static_cast<char>('0' + units % 10);
    units /= 10;
  }
  int len = 6;
  while (digits[len - 1] == '0') --len;  // %g strips trailing zeros
  if (d >= 0) {
    const int whole = d + 1;
    std::memcpy(p, digits, static_cast<std::size_t>(whole));
    p += whole;
    if (len > whole) {
      *p++ = '.';
      std::memcpy(p, digits + whole, static_cast<std::size_t>(len - whole));
      p += len - whole;
    }
  } else {
    *p++ = '0';
    *p++ = '.';
    for (int i = -1; i > d; --i) *p++ = '0';
    std::memcpy(p, digits, static_cast<std::size_t>(len));
    p += len;
  }
  return p;
}

/// Longest field we format in place: %.6g output (max ~13 chars) and
/// 20-digit u64, with slack.
constexpr std::size_t kMaxField = 40;

}  // namespace

WriteBuffer::WriteBuffer(std::ostream& out, std::size_t capacity)
    : out_(&out),
      own_(std::max(capacity, 2 * kMaxField), '\0'),
      text_(&own_) {}

WriteBuffer::WriteBuffer(std::string& text)
    : text_(&text), size_(text.size()) {}

WriteBuffer::~WriteBuffer() { flush(); }

void WriteBuffer::flush() {
  if (out_ == nullptr) {
    text_->resize(size_);
  } else if (size_ > 0) {
    out_->write(text_->data(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }
}

void WriteBuffer::make_room(std::size_t need) {
  if (out_ != nullptr) {
    flush();
    if (need <= text_->size()) return;
  }
  text_->resize(
      std::max({size_ + need, 2 * text_->size(), text_->capacity()}));
}

void WriteBuffer::append(std::string_view text) {
  if (out_ != nullptr && text.size() > text_->size()) {
    // Larger than the whole buffer: write it through.
    flush();
    out_->write(text.data(), static_cast<std::streamsize>(text.size()));
    return;
  }
  std::memcpy(cursor(text.size()), text.data(), text.size());
  size_ += text.size();
}

void WriteBuffer::append_u64(std::uint64_t value) {
  char* const p = cursor(kMaxField);
  size_ += static_cast<std::size_t>(write_u64(p, value) - p);
}

void WriteBuffer::append_ip(std::uint32_t ip) {
  char* const p0 = cursor(16);
  char* p = write_u64(p0, (ip >> 24) & 0xFF);
  *p++ = '.';
  p = write_u64(p, (ip >> 16) & 0xFF);
  *p++ = '.';
  p = write_u64(p, (ip >> 8) & 0xFF);
  *p++ = '.';
  p = write_u64(p, ip & 0xFF);
  size_ += static_cast<std::size_t>(p - p0);
}

void WriteBuffer::append_double_g6(double value) {
  char* const p0 = cursor(kMaxField);
  const double av = std::abs(value);
  if (av < 1e6) {  // finite, and below %g's switch to exponent form
    char* p = p0;
    if (std::signbit(value)) *p++ = '-';
    if (av == round_to_integer(av)) {
      // At most six significant digits: %g prints a plain integer
      // (including "-0" for negative zero, as ostream does).
      p = write_u64(p, static_cast<std::uint64_t>(av));
    } else {
      p = av >= 1e-4 ? write_g6_fixed(p, av) : nullptr;
    }
    if (p != nullptr) {
      size_ += static_cast<std::size_t>(p - p0);
      return;
    }
  }
  // Everything else (below 1e-4, 1e6 and up, near-ties, decade carries,
  // inf/nan): to_chars general-6 is specified to produce printf %.6g.
  const auto result =
      std::to_chars(p0, p0 + kMaxField, value, std::chars_format::general, 6);
  size_ += static_cast<std::size_t>(result.ptr - p0);
}

}  // namespace vstream::telemetry
