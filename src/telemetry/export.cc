#include "telemetry/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "failpoints/failpoint.h"
#include "runtime/executor.h"
#include "sim/host_error.h"
#include "telemetry/fast_format.h"
#include "telemetry/record_schema.h"

namespace vstream::telemetry {

namespace {

/// Append the CSV text of field `v` of column `col`.
template <typename Col, typename T>
void append_field(WriteBuffer& buf, const Col&, const T& v) {
  if constexpr (Col::is_ip) {
    buf.append_ip(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    buf.append_bool01(v);
  } else if constexpr (std::is_same_v<T, double>) {
    buf.append_double_g6(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    buf.append(v);
  } else if constexpr (std::is_enum_v<T>) {
    buf.append(to_string(v));
  } else {
    static_assert(std::is_unsigned_v<T>);
    buf.append_u64(v);
  }
}

/// Parse `text` into field `v` of column `col`; false when `text` is not
/// exactly a value append_field() could have written for the column.
template <typename Col, typename T>
bool parse_field(std::string_view text, const Col&, T& v) {
  if constexpr (Col::is_ip) {
    try {
      v = net::parse_ip(text);
    } catch (const std::invalid_argument&) {
      return false;
    }
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    v = text == "1";
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.assign(text);
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    // The inverse of to_string(): the enumerator whose token this is.
    for (int i = 0; i <= static_cast<int>(last_enumerator(T{})); ++i) {
      if (text == to_string(static_cast<T>(i))) {
        v = static_cast<T>(i);
        return true;
      }
    }
    return false;
  } else {
    // The whole field: from_chars takes no whitespace and no '+', and on
    // an unsigned type no '-' either — integers are digits only, and one
    // that does not fit the column's type is out of range.
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    return ec == std::errc() && ptr == end;
  }
}

template <typename Rec>
std::filesystem::path csv_path(const std::filesystem::path& directory) {
  return directory / (std::string(RecordSchema<Rec>::kStream) + ".csv");
}

}  // namespace

template <typename Rec>
void append_csv_row(WriteBuffer& buf, const Rec& r) {
  std::apply(
      [&](const auto& first, const auto&... rest) {
        append_field(buf, first, first.get(r));
        ((buf.append(','), append_field(buf, rest, rest.get(r))), ...);
      },
      RecordSchema<Rec>::kColumns);
  buf.append('\n');
}

template <typename Rec>
void write_csv(std::ostream& out, const std::vector<Rec>& records) {
  WriteBuffer buf(out);
  buf.append(csv_header<Rec>());
  buf.append('\n');
  for (const Rec& r : records) append_csv_row(buf, r);
}

template <typename Rec>
std::vector<Rec> read_csv(std::istream& in) {
  const std::string stream(RecordSchema<Rec>::kStream);
  std::string line;
  if (!std::getline(in, line) || line != csv_header<Rec>()) {
    throw std::runtime_error("csv: bad header for " + stream + ": got '" +
                             line + "'");
  }
  std::vector<Rec> records;
  std::array<std::string_view, kColumnCount<Rec>> fields;
  for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("csv: " + stream + " line " +
                               std::to_string(line_no) + ": " + what);
    };
    std::size_t count = 0;
    for (std::size_t begin = 0;;) {
      const std::size_t comma = line.find(',', begin);
      if (count < fields.size()) {
        fields[count] = std::string_view(line).substr(begin, comma - begin);
      }
      ++count;
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    if (count != fields.size()) {
      fail("wrong field count: expected " + std::to_string(fields.size()) +
           ", got " + std::to_string(count));
    }
    Rec& r = records.emplace_back();
    std::size_t i = 0;
    for_each_column<Rec>([&](const auto& col) {
      const std::string_view text = fields[i++];
      if (!parse_field(text, col, col.get(r))) {
        fail("bad " + std::string(col.name) + " '" + std::string(text) + "'");
      }
    });
  }
  return records;
}

template void append_csv_row(WriteBuffer&, const PlayerSessionRecord&);
template void append_csv_row(WriteBuffer&, const CdnSessionRecord&);
template void append_csv_row(WriteBuffer&, const PlayerChunkRecord&);
template void append_csv_row(WriteBuffer&, const CdnChunkRecord&);
template void append_csv_row(WriteBuffer&, const TcpSnapshotRecord&);
template void write_csv(std::ostream&,
                        const std::vector<PlayerSessionRecord>&);
template void write_csv(std::ostream&,
                        const std::vector<CdnSessionRecord>&);
template void write_csv(std::ostream&,
                        const std::vector<PlayerChunkRecord>&);
template void write_csv(std::ostream&,
                        const std::vector<CdnChunkRecord>&);
template void write_csv(std::ostream&,
                        const std::vector<TcpSnapshotRecord>&);
template std::vector<PlayerSessionRecord> read_csv(std::istream&);
template std::vector<CdnSessionRecord> read_csv(std::istream&);
template std::vector<PlayerChunkRecord> read_csv(std::istream&);
template std::vector<CdnChunkRecord> read_csv(std::istream&);
template std::vector<TcpSnapshotRecord> read_csv(std::istream&);

// ---------------------------------------------------------------- directory

namespace {

/// Ranges formatted per window: two per worker leaves stealing room for
/// the shorter last range of each stream.
std::size_t window_ranges(const runtime::Executor* executor) {
  return 2 * (executor != nullptr ? executor->workers() : 1);
}

/// The one CSV writer behind export_dataset() and export_stream().  The
/// constructor opens all five files and writes their headers; every
/// write() appends a Dataset's rows; close() flushes and checks each
/// file.  write() cuts every stream into kExportRangeRows-row ranges and
/// formats a window of them into their own strings (in parallel on a
/// multi-worker executor) while one more task of the same run writes the
/// previous window's strings in file order: the bytes match a serial
/// loop, the pool keeps formatting during the writes, and the text alive
/// stays within two windows.
class CsvWriter {
 public:
  explicit CsvWriter(const std::filesystem::path& directory) {
    std::filesystem::create_directories(directory);
    const Dataset none;  // its streams' record types name the files
    for_each_stream(
        [&](std::size_t f, const auto& records) {
          using Rec = record_t<decltype(records)>;
          path_[f] = csv_path<Rec>(directory);
          out_[f].open(path_[f]);
          // Open failure, real or injected (export.open).
          if (failpoints::should_fail(failpoints::Site::kExportOpen)) {
            out_[f].setstate(std::ios::badbit);
          }
          if (!out_[f]) {
            throw sim::HostIoError("csv: cannot open " + path_[f].string());
          }
          out_[f] << csv_header<Rec>() << '\n';
        },
        none);
  }

  /// Append every row of `data`.  Throws sim::HostIoError after the
  /// first window whose write leaves a file's stream failed (a short
  /// write latches badbit even while rows are still buffered), so a full
  /// disk stops the export early.
  void write(const Dataset& data, runtime::Executor* executor) {
    struct Range {
      std::size_t file;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<Range> ranges;
    for_each_stream(
        [&](std::size_t f, const auto& records) {
          const std::size_t rows = records.size();
          for (std::size_t begin = 0; begin < rows; begin += kExportRangeRows) {
            ranges.push_back(
                {f, begin, std::min(begin + kExportRangeRows, rows)});
          }
        },
        data);

    // Window w is formatted into text while task 0 of the same run writes
    // window w - 1 from written, in file order; the last window is written
    // after the loop.  The strings keep their capacity from window to
    // window, so at most two windows of text are alive.
    const bool parallel = executor != nullptr && executor->workers() > 1;
    const std::size_t window = window_ranges(executor);
    std::vector<std::string> text(std::min(window, ranges.size()));
    std::vector<std::string> written(text.size());
    std::size_t written_base = 0;
    std::size_t written_count = 0;
    const auto throw_if_failed = [&] {
      for (std::size_t f = 0; f < kStreamCount; ++f) {
        if (out_[f].bad()) {
          throw sim::HostIoError("csv: error writing " + path_[f].string());
        }
      }
    };
    const auto write_previous = [&] {
      for (std::size_t k = 0; k < written_count; ++k) {
        out_[ranges[written_base + k].file].write(
            written[k].data(), static_cast<std::streamsize>(written[k].size()));
      }
    };
    for (std::size_t base = 0; base < ranges.size(); base += window) {
      const std::size_t count = std::min(window, ranges.size() - base);
      const auto task = [&](std::size_t t) {
        if (t == 0) return write_previous();
        const Range& range = ranges[base + t - 1];
        std::string& out = text[t - 1];
        out.clear();
        WriteBuffer buf(out);
        for_each_stream(
            [&](std::size_t f, const auto& records) {
              if (f != range.file) return;
              for (std::size_t i = range.begin; i < range.end; ++i) {
                append_csv_row(buf, records[i]);
              }
            },
            data);
      };
      if (parallel) {
        executor->parallel_for(count + 1, task, nullptr, "export");
      } else {
        for (std::size_t t = 0; t <= count; ++t) task(t);
      }
      text.swap(written);
      written_base = base;
      written_count = count;
      throw_if_failed();
    }
    write_previous();
    throw_if_failed();
  }

  /// Flush and close every file.  A short write (full disk, or the
  /// export.write failpoint) throws sim::HostIoError, so the tool exits
  /// nonzero instead of leaving a truncated CSV behind with exit 0.
  void close() {
    for (std::size_t f = 0; f < kStreamCount; ++f) {
      if (failpoints::should_fail(failpoints::Site::kExportWrite)) {
        out_[f].setstate(std::ios::badbit);
      }
      out_[f].flush();
      if (out_[f].fail()) {
        throw sim::HostIoError("csv: error writing " + path_[f].string());
      }
      out_[f].close();
    }
  }

 private:
  std::array<std::filesystem::path, kStreamCount> path_;
  std::array<std::ofstream, kStreamCount> out_;
};

}  // namespace

void export_dataset(const Dataset& data,
                    const std::filesystem::path& directory,
                    runtime::Executor* executor) {
  CsvWriter writer(directory);
  writer.write(data, executor);
  writer.close();
}

void export_stream(SessionGroupStream& groups,
                   const std::filesystem::path& directory,
                   runtime::Executor* executor) {
  CsvWriter writer(directory);
  // Groups arrive in canonical order, so a window of consecutive groups
  // is a canonical Dataset slice and writing the windows in turn writes
  // every stream in order.  A window holds about one write() window of
  // ranges, so memory stays bounded by the worker count (or one session,
  // if a session is larger), not by the run.
  const std::size_t window_records =
      window_ranges(executor) * kExportRangeRows;
  Dataset window;
  std::size_t records = 0;
  while (std::optional<SessionRecordGroup> group = groups.next()) {
    records += group->record_count();
    for_each_stream(
        [](std::size_t, auto& to, auto& from) {
          to.insert(to.end(), std::make_move_iterator(from.begin()),
                    std::make_move_iterator(from.end()));
        },
        window, *group);
    if (records >= window_records) {
      writer.write(window, executor);
      for_each_stream([](std::size_t, auto& stream) { stream.clear(); },
                      window);
      records = 0;
    }
  }
  writer.write(window, executor);
  writer.close();
}

Dataset import_dataset(const std::filesystem::path& directory) {
  Dataset data;
  for_each_stream(
      [&](std::size_t, auto& records) {
        using Rec = record_t<decltype(records)>;
        const std::filesystem::path path = csv_path<Rec>(directory);
        std::ifstream in(path);
        if (!in) throw std::runtime_error("csv: cannot open " + path.string());
        records = read_csv<Rec>(in);
      },
      data);
  canonicalize(data);
  return data;
}

}  // namespace vstream::telemetry
