// Strict numeric parsing of VSTREAM_* environment variables and
// command-line flags, shared by every layer.
//
// One contract everywhere: an *unset* variable falls back silently; a
// variable or flag value that is set but does not parse (empty,
// non-numeric, signed, out of range, trailing garbage) throws
// std::runtime_error naming the variable or flag — a run never silently
// ignores an operator's knob.  The tools catch it at main and exit 2
// (core/exit_codes.h).  This header is the single home of the parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace vstream::sim {

/// Parse `raw` as a decimal integer in [min, max]: digits only — no
/// sign, blank or trailing garbage.  Otherwise throws std::runtime_error
/// naming `name`.  The default range is the positive integers (counts);
/// pass min = 0 where zero means something (a seed, "disabled").
std::uint64_t parse_uint(
    const char* name, const std::string& raw, std::uint64_t min = 1,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parse `raw` as a finite number greater than zero, with nothing after
/// it; otherwise throws std::runtime_error naming `name`.
double parse_positive_double(const char* name, const std::string& raw);

/// parse_uint() of the variable `name` as a positive count.  Unset:
/// returns `fallback`.
std::size_t positive_env(const char* name, std::size_t fallback);

/// Read `name` as a string.  Unset returns `fallback`; set (including
/// empty) returns the raw value.  For knobs where an empty string is a
/// valid "disabled" state (e.g. VSTREAM_SERIES_DIR).
std::string string_env(const char* name, const std::string& fallback = "");

}  // namespace vstream::sim
