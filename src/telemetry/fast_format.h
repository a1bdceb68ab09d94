// Buffered CSV writing with integer-path number formatting.
//
// The stream writers in export.cc emit millions of small fields; going
// through std::ostream's locale-aware num_put for each one dominates
// export time.  WriteBuffer batches bytes into one flat buffer and
// formats numbers directly:
//
//   * append_u64 — classic backward digit loop,
//   * append_double_g6 — byte-identical to the default `ostream << double`
//     (printf %.6g) output.  Integers below 1e6 print as integers; every
//     other finite |v| in [1e-4, 1e6) — nearly every value telemetry
//     produces — is scaled into [1e5, 1e6) by an exact power of ten,
//     rounded to six digits in double arithmetic and laid out as
//     fixed-point text.  The scaling error is below 1.2e-10, so the rounding
//     agrees with the exact decimal rounding of %.6g unless the scaled
//     value lies within 1e-6 of a half-integer (a possible tie) or rounds
//     out of [1e5, 1e6) (a carry into the next decade, as 9.999996 -> "10"
//     or 999999.7 -> "1e+06"); those values, and everything outside the
//     range or non-finite, go to std::to_chars general-6, which is
//     specified to produce printf %.6g output (tests/telemetry/
//     fast_format_test.cc checks both paths against snprintf),
//   * append_ip — dotted quad, matching net::format_ip.
//
// The buffer either flushes to a std::ostream in fixed-size chunks or
// grows a caller's std::string (the parallel CSV export formats each row
// range into its own string).  Byte-identity with the previous formatter
// is load-bearing: the determinism suite compares exported CSVs across
// shard counts and runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vstream::telemetry {

class WriteBuffer {
 public:
  /// Buffer `capacity` bytes at a time, written to `out` by flush().
  explicit WriteBuffer(std::ostream& out, std::size_t capacity = 1 << 16);
  /// Append to `text` after its current contents, growing it as needed;
  /// `text` holds exactly the appended bytes after flush() or destruction.
  explicit WriteBuffer(std::string& text);
  ~WriteBuffer();  // flushes

  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;

  void append(char c) {
    *cursor(1) = c;
    ++size_;
  }
  void append(std::string_view text);

  void append_u64(std::uint64_t value);
  /// '1' or '0' — the CSV encoding of flags.
  void append_bool01(bool value) { append(value ? '1' : '0'); }
  /// Exactly what `out << value` writes for a double at default precision.
  void append_double_g6(double value);
  /// Dotted quad, identical to net::format_ip.
  void append_ip(std::uint32_t ip);

  void flush();

 private:
  /// Reserve `need` contiguous bytes and return the write cursor.
  char* cursor(std::size_t need) {
    if (size_ + need > text_->size()) make_room(need);
    return text_->data() + size_;
  }
  /// Flush to the stream, or grow the caller's string.
  void make_room(std::size_t need);

  std::ostream* out_ = nullptr;  ///< null when appending to a caller's string
  std::string own_;              ///< the buffer of the stream mode
  std::string* text_;            ///< bytes [0, size_) are the pending output
  std::size_t size_ = 0;
};

}  // namespace vstream::telemetry
