// Strict VSTREAM_* environment-variable parsing, shared by every layer.
//
// One contract everywhere: an *unset* variable falls back silently; a
// variable that is set but does not parse (empty, non-numeric, zero,
// negative, trailing garbage) throws std::runtime_error naming the
// variable — a run never silently ignores an operator's knob.  This
// header is the single home of the parsers.
#pragma once

#include <cstddef>
#include <string>

namespace vstream::sim {

/// Parse `name` as a strictly positive integer.  Unset: returns
/// `fallback`.  Set but empty, non-numeric, zero, negative, or trailing
/// garbage: throws std::runtime_error naming the variable.
std::size_t positive_env(const char* name, std::size_t fallback);

/// Read `name` as a string.  Unset returns `fallback`; set (including
/// empty) returns the raw value.  For knobs where an empty string is a
/// valid "disabled" state (e.g. VSTREAM_SERIES_DIR).
std::string string_env(const char* name, const std::string& fallback = "");

}  // namespace vstream::sim
