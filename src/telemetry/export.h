// CSV export/import of the raw telemetry streams.
//
// Production measurement systems land their logs in files and join them
// offline; this module emits the five record streams (Tables 2 and 3 plus
// the tcp_info snapshots) as CSV with stable headers, and loads them back,
// so datasets can be generated once and analysed elsewhere (or inspected
// with standard tooling).
//
// Format notes: one file per stream, named after the stream
// (player_sessions.csv, ...); the first line is the header, the column
// names of record_schema.h in schema order; fields are comma-separated.
// Strings (user agents, orgs, cities) are written verbatim — they never
// contain commas by construction.  The loader is strict and never guesses:
// a row with the wrong field count, an integer that is not all digits or
// does not fit its column, a double with trailing text, a flag other than
// 0 or 1, or an enum token its to_string() never writes is an error
// naming the stream, the line and the column.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>

#include "telemetry/collector.h"
#include "telemetry/record_group.h"

namespace vstream::runtime {
class Executor;
}

namespace vstream::telemetry {

class WriteBuffer;

// ---- one stream ----
// Generic over the five record types; each is a fold over its column list
// in record_schema.h, instantiated for the five types in export.cc.

/// One CSV row (with trailing newline), no header — the shared formatting
/// core of write_csv() and of the directory export, so both are
/// byte-identical by construction.
template <typename Rec>
void append_csv_row(WriteBuffer& buf, const Rec& r);

/// The header line, then one row per record.
template <typename Rec>
void write_csv(std::ostream& out, const std::vector<Rec>& records);

/// Read a stream written by write_csv().  Throws std::runtime_error naming
/// the stream, the line and (for a bad field) the column on a wrong
/// header, a wrong field count or a malformed field.
template <typename Rec>
std::vector<Rec> read_csv(std::istream& in);

/// Rows per range of the CSV writer: each range of a stream is formatted
/// into its own string (about 0.8 MiB of tcp_snapshots text).
inline constexpr std::size_t kExportRangeRows = 8192;

/// Write all five streams into `directory` (created if missing) as
/// player_sessions.csv, cdn_sessions.csv, player_chunks.csv,
/// cdn_chunks.csv, tcp_snapshots.csv.  Each stream is cut into ranges of
/// kExportRangeRows rows, formatted a window of two ranges per worker at
/// a time (in parallel when `executor` has more than one worker); one
/// task of each window's run writes the previous window in file order,
/// on whichever worker takes it, so the writes overlap the formatting.
/// The text alive never exceeds two windows, and the bytes of every file
/// are identical at any worker count.  A failed open or short write (full disk,
/// or the export.open/export.write failpoints) throws sim::HostIoError —
/// a truncated CSV never goes unreported.
void export_dataset(const Dataset& data,
                    const std::filesystem::path& directory,
                    runtime::Executor* executor = nullptr);

/// Load a dataset previously written by export_dataset(), or any CSVs of
/// the same schema with rows in any order: the result is canonicalized.
Dataset import_dataset(const std::filesystem::path& directory);

/// Stream session groups into the same five CSV files as export_dataset()
/// without materializing a Dataset.  When `groups` yields sessions in
/// canonical order (ascending session id, per-session emission order —
/// what SpillSet::open() and DatasetGroupStream produce), the files are
/// byte-identical to export_dataset() on the equivalent merged dataset.
///
/// Groups are moved into a window Dataset; each time the window holds
/// one export_dataset() window of rows (two kExportRangeRows ranges per
/// worker, over all five streams) it goes through the same writer and
/// is cleared.  Memory is bounded by the worker count — or by one
/// session, when a session is larger — never by the run.
void export_stream(SessionGroupStream& groups,
                   const std::filesystem::path& directory,
                   runtime::Executor* executor = nullptr);

}  // namespace vstream::telemetry
