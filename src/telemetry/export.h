// CSV export/import of the raw telemetry streams.
//
// Production measurement systems land their logs in files and join them
// offline; this module emits the five record streams (Tables 2 and 3 plus
// the tcp_info snapshots) as CSV with stable headers, and loads them back,
// so datasets can be generated once and analysed elsewhere (or inspected
// with standard tooling).
//
// Format notes: one file per stream, first line is the header, fields are
// comma-separated; strings (user agents, orgs, cities) are written
// verbatim — they never contain commas by construction, and the loader
// rejects rows with the wrong field count rather than guessing.
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

// ---- row appenders ----
// One CSV row (with trailing newline), no header — the shared formatting
// core of the stream writers below and of the directory export, so both
// are byte-identical by construction.

void append_csv_row(WriteBuffer& buf, const PlayerSessionRecord& r);
void append_csv_row(WriteBuffer& buf, const CdnSessionRecord& r);
void append_csv_row(WriteBuffer& buf, const PlayerChunkRecord& r);
void append_csv_row(WriteBuffer& buf, const CdnChunkRecord& r);
void append_csv_row(WriteBuffer& buf, const TcpSnapshotRecord& r);

// ---- stream writers (stable column order, documented in the header row) --

void write_player_sessions_csv(std::ostream& out,
                               const std::vector<PlayerSessionRecord>& records);
void write_cdn_sessions_csv(std::ostream& out,
                            const std::vector<CdnSessionRecord>& records);
void write_player_chunks_csv(std::ostream& out,
                             const std::vector<PlayerChunkRecord>& records);
void write_cdn_chunks_csv(std::ostream& out,
                          const std::vector<CdnChunkRecord>& records);
void write_tcp_snapshots_csv(std::ostream& out,
                             const std::vector<TcpSnapshotRecord>& records);

// ---- stream readers ----
// Throw std::runtime_error on malformed headers or rows.

std::vector<PlayerSessionRecord> read_player_sessions_csv(std::istream& in);
std::vector<CdnSessionRecord> read_cdn_sessions_csv(std::istream& in);
std::vector<PlayerChunkRecord> read_player_chunks_csv(std::istream& in);
std::vector<CdnChunkRecord> read_cdn_chunks_csv(std::istream& in);
std::vector<TcpSnapshotRecord> read_tcp_snapshots_csv(std::istream& in);

/// Rows per range of the CSV writer: each range of a stream is formatted
/// into its own buffer (about 0.8 MiB of tcp_snapshots text).
inline constexpr std::size_t kExportRangeRows = 8192;

/// Write all five streams into `directory` (created if missing) as
/// player_sessions.csv, cdn_sessions.csv, player_chunks.csv,
/// cdn_chunks.csv, tcp_snapshots.csv.  Each stream is cut into ranges of
/// kExportRangeRows rows, formatted a window of two ranges per worker at
/// a time (in parallel when `executor` has more than one worker) and
/// written in file order by the calling thread; the formatted-but-
/// unwritten text never exceeds one window, and the bytes of every file
/// are identical either way.  A failed open or short write (full disk,
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
