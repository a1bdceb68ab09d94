// First-divergence comparison of two datasets through their CSV exports.
//
// The engine tests compare runs by the bytes export_dataset would write.
// EXPECT_EQ on two multi-MB exports makes gtest compute a line diff whose
// memory is quadratic in the line count, so a regression there gets the
// test binary killed instead of reported.  same_csv compares the five
// streams one by one and reports only where the first difference is: the
// file, the line, the column and both fields.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>

#include "telemetry/export.h"

namespace vstream::test {

/// The export's file of each stream, in for_each_stream order.
inline constexpr const char* kCsvFiles[] = {
    "player_sessions.csv", "cdn_sessions.csv", "player_chunks.csv",
    "cdn_chunks.csv", "tcp_snapshots.csv"};

/// The `column`-th comma-separated field of the line starting at
/// `line_start` of `csv` (strings never contain commas).
inline std::string_view csv_field(std::string_view csv, std::size_t line_start,
                                  std::size_t column) {
  std::size_t begin = line_start;
  for (std::size_t c = 0; c < column && begin < csv.size(); ++c) {
    begin = csv.find_first_of(",\n", begin);
    if (begin == std::string_view::npos || csv[begin] == '\n') return {};
    ++begin;
  }
  const std::size_t end = std::min(csv.find_first_of(",\n", begin), csv.size());
  return csv.substr(begin, end - begin);
}

/// Where `actual` first departs from `expected`, two exports of the same
/// stream, as "<file> line L column C (<name>): <actual> vs <expected>".
inline std::string first_divergence(const char* file, std::string_view actual,
                                    std::string_view expected) {
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(actual.begin(), actual.end(), expected.begin(),
                    expected.end())
          .first -
      actual.begin());
  const std::size_t line_start =
      at == 0 ? 0 : actual.rfind('\n', at - 1) + 1;  // npos + 1 == 0
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(actual.begin(),
                         actual.begin() + static_cast<std::ptrdiff_t>(at),
                         '\n'));
  const std::size_t column = static_cast<std::size_t>(
      std::count(actual.begin() + static_cast<std::ptrdiff_t>(line_start),
                 actual.begin() + static_cast<std::ptrdiff_t>(at), ','));
  std::ostringstream out;
  out << file << " line " << line << " column " << column + 1;
  if (line > 1) out << " (" << csv_field(actual, 0, column) << ")";
  out << ": ";
  if (line_start >= actual.size()) {
    out << "<end of file>";
  } else {
    out << "'" << csv_field(actual, line_start, column) << "'";
  }
  out << " vs ";
  if (line_start >= expected.size()) {
    out << "<end of file>";
  } else {
    out << "'" << csv_field(expected, line_start, column) << "'";
  }
  out << " (" << actual.size() << " vs " << expected.size() << " bytes)";
  return out.str();
}

/// Whether `actual` and `expected` export to the same five CSV files; the
/// failure message names the first divergence (first_divergence).
inline ::testing::AssertionResult same_csv(const telemetry::Dataset& actual,
                                           const telemetry::Dataset& expected) {
  std::string diverged;
  telemetry::for_each_stream(
      [&](std::size_t s, const auto& a, const auto& e) {
        if (!diverged.empty()) return;
        std::ostringstream a_csv;
        std::ostringstream e_csv;
        telemetry::write_csv(a_csv, a);
        telemetry::write_csv(e_csv, e);
        if (a_csv.view() != e_csv.view()) {
          diverged = first_divergence(kCsvFiles[s], a_csv.view(), e_csv.view());
        }
      },
      actual, expected);
  if (diverged.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "CSV exports differ at " << diverged;
}

}  // namespace vstream::test
