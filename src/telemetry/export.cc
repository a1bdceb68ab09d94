#include "telemetry/export.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "failpoints/failpoint.h"
#include "runtime/executor.h"
#include "sim/host_error.h"
#include "telemetry/fast_format.h"

namespace vstream::telemetry {

namespace {

// ------------------------------------------------------------------ util

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

void expect_header(std::istream& in, const std::string& expected,
                   const char* stream_name) {
  std::string line;
  if (!std::getline(in, line) || line != expected) {
    throw std::runtime_error(std::string("csv: bad header for ") +
                             stream_name + ": got '" + line + "'");
  }
}

void expect_fields(const std::vector<std::string>& fields, std::size_t n,
                   const char* stream_name) {
  if (fields.size() != n) {
    throw std::runtime_error(std::string("csv: wrong field count in ") +
                             stream_name + ": expected " + std::to_string(n) +
                             ", got " + std::to_string(fields.size()));
  }
}

const char* cache_level_token(cdn::CacheLevel level) {
  return cdn::to_string(level);  // "ram-hit" / "disk-hit" / "miss"
}

cdn::CacheLevel parse_cache_level(const std::string& token) {
  if (token == "ram-hit") return cdn::CacheLevel::kRam;
  if (token == "disk-hit") return cdn::CacheLevel::kDisk;
  if (token == "miss") return cdn::CacheLevel::kMiss;
  throw std::runtime_error("csv: unknown cache level '" + token + "'");
}

const char* access_token(net::AccessType access) {
  return net::to_string(access);
}

cdn::BreakerState parse_breaker_state(const std::string& token) {
  if (token == "closed") return cdn::BreakerState::kClosed;
  if (token == "open") return cdn::BreakerState::kOpen;
  if (token == "half-open") return cdn::BreakerState::kHalfOpen;
  throw std::runtime_error("csv: unknown breaker state '" + token + "'");
}

net::AccessType parse_access(const std::string& token) {
  if (token == "residential") return net::AccessType::kResidential;
  if (token == "enterprise") return net::AccessType::kEnterprise;
  if (token == "international") return net::AccessType::kInternational;
  throw std::runtime_error("csv: unknown access type '" + token + "'");
}

}  // namespace

// --------------------------------------------------------- player sessions

namespace {
constexpr const char* kPlayerSessionHeader =
    "session_id,client_ip,user_agent,video_duration_s,start_time_ms,"
    "startup_ms,chunks_requested,completed";
}

void append_csv_row(WriteBuffer& buf, const PlayerSessionRecord& r) {
  buf.append_u64(r.session_id);
  buf.append(',');
  buf.append_ip(r.client_ip);
  buf.append(',');
  buf.append(r.user_agent);
  buf.append(',');
  buf.append_double_g6(r.video_duration_s);
  buf.append(',');
  buf.append_double_g6(r.start_time_ms);
  buf.append(',');
  buf.append_double_g6(r.startup_ms);
  buf.append(',');
  buf.append_u64(r.chunks_requested);
  buf.append(',');
  buf.append_bool01(r.completed);
  buf.append('\n');
}

void write_player_sessions_csv(std::ostream& out,
                               const std::vector<PlayerSessionRecord>& records) {
  WriteBuffer buf(out);
  buf.append(kPlayerSessionHeader);
  buf.append('\n');
  for (const PlayerSessionRecord& r : records) append_csv_row(buf, r);
}

std::vector<PlayerSessionRecord> read_player_sessions_csv(std::istream& in) {
  expect_header(in, kPlayerSessionHeader, "player_sessions");
  std::vector<PlayerSessionRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    expect_fields(f, 8, "player_sessions");
    PlayerSessionRecord r;
    r.session_id = std::stoull(f[0]);
    r.client_ip = net::parse_ip(f[1]);
    r.user_agent = f[2];
    r.video_duration_s = std::stod(f[3]);
    r.start_time_ms = std::stod(f[4]);
    r.startup_ms = std::stod(f[5]);
    r.chunks_requested = static_cast<std::uint32_t>(std::stoul(f[6]));
    r.completed = f[7] == "1";
    records.push_back(std::move(r));
  }
  return records;
}

// ------------------------------------------------------------ cdn sessions

namespace {
constexpr const char* kCdnSessionHeader =
    "session_id,observed_ip,observed_user_agent,pop,server,org,access,city,"
    "country,client_distance_km";
}

void append_csv_row(WriteBuffer& buf, const CdnSessionRecord& r) {
  buf.append_u64(r.session_id);
  buf.append(',');
  buf.append_ip(r.observed_ip);
  buf.append(',');
  buf.append(r.observed_user_agent);
  buf.append(',');
  buf.append_u64(r.pop);
  buf.append(',');
  buf.append_u64(r.server);
  buf.append(',');
  buf.append(r.org);
  buf.append(',');
  buf.append(access_token(r.access));
  buf.append(',');
  buf.append(r.city);
  buf.append(',');
  buf.append(r.country);
  buf.append(',');
  buf.append_double_g6(r.client_distance_km);
  buf.append('\n');
}

void write_cdn_sessions_csv(std::ostream& out,
                            const std::vector<CdnSessionRecord>& records) {
  WriteBuffer buf(out);
  buf.append(kCdnSessionHeader);
  buf.append('\n');
  for (const CdnSessionRecord& r : records) append_csv_row(buf, r);
}

std::vector<CdnSessionRecord> read_cdn_sessions_csv(std::istream& in) {
  expect_header(in, kCdnSessionHeader, "cdn_sessions");
  std::vector<CdnSessionRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    expect_fields(f, 10, "cdn_sessions");
    CdnSessionRecord r;
    r.session_id = std::stoull(f[0]);
    r.observed_ip = net::parse_ip(f[1]);
    r.observed_user_agent = f[2];
    r.pop = static_cast<std::uint32_t>(std::stoul(f[3]));
    r.server = static_cast<std::uint32_t>(std::stoul(f[4]));
    r.org = f[5];
    r.access = parse_access(f[6]);
    r.city = f[7];
    r.country = f[8];
    r.client_distance_km = std::stod(f[9]);
    records.push_back(std::move(r));
  }
  return records;
}

// ------------------------------------------------------------ player chunks

namespace {
constexpr const char* kPlayerChunkHeader =
    "session_id,chunk_id,request_sent_ms,dfb_ms,dlb_ms,bitrate_kbps,"
    "rebuffer_ms,rebuffer_count,visible,avg_fps,dropped_frames,total_frames,"
    "retries,timeouts,failed_over,recovery_ms";
}

void append_csv_row(WriteBuffer& buf, const PlayerChunkRecord& r) {
  buf.append_u64(r.session_id);
  buf.append(',');
  buf.append_u64(r.chunk_id);
  buf.append(',');
  buf.append_double_g6(r.request_sent_ms);
  buf.append(',');
  buf.append_double_g6(r.dfb_ms);
  buf.append(',');
  buf.append_double_g6(r.dlb_ms);
  buf.append(',');
  buf.append_u64(r.bitrate_kbps);
  buf.append(',');
  buf.append_double_g6(r.rebuffer_ms);
  buf.append(',');
  buf.append_u64(r.rebuffer_count);
  buf.append(',');
  buf.append_bool01(r.visible);
  buf.append(',');
  buf.append_double_g6(r.avg_fps);
  buf.append(',');
  buf.append_u64(r.dropped_frames);
  buf.append(',');
  buf.append_u64(r.total_frames);
  buf.append(',');
  buf.append_u64(r.retries);
  buf.append(',');
  buf.append_u64(r.timeouts);
  buf.append(',');
  buf.append_bool01(r.failed_over);
  buf.append(',');
  buf.append_double_g6(r.recovery_ms);
  buf.append('\n');
}

void write_player_chunks_csv(std::ostream& out,
                             const std::vector<PlayerChunkRecord>& records) {
  WriteBuffer buf(out);
  buf.append(kPlayerChunkHeader);
  buf.append('\n');
  for (const PlayerChunkRecord& r : records) append_csv_row(buf, r);
}

std::vector<PlayerChunkRecord> read_player_chunks_csv(std::istream& in) {
  expect_header(in, kPlayerChunkHeader, "player_chunks");
  std::vector<PlayerChunkRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    expect_fields(f, 16, "player_chunks");
    PlayerChunkRecord r;
    r.session_id = std::stoull(f[0]);
    r.chunk_id = static_cast<std::uint32_t>(std::stoul(f[1]));
    r.request_sent_ms = std::stod(f[2]);
    r.dfb_ms = std::stod(f[3]);
    r.dlb_ms = std::stod(f[4]);
    r.bitrate_kbps = static_cast<std::uint32_t>(std::stoul(f[5]));
    r.rebuffer_ms = std::stod(f[6]);
    r.rebuffer_count = static_cast<std::uint32_t>(std::stoul(f[7]));
    r.visible = f[8] == "1";
    r.avg_fps = std::stod(f[9]);
    r.dropped_frames = static_cast<std::uint32_t>(std::stoul(f[10]));
    r.total_frames = static_cast<std::uint32_t>(std::stoul(f[11]));
    r.retries = static_cast<std::uint32_t>(std::stoul(f[12]));
    r.timeouts = static_cast<std::uint32_t>(std::stoul(f[13]));
    r.failed_over = f[14] == "1";
    r.recovery_ms = std::stod(f[15]);
    records.push_back(r);
  }
  return records;
}

// --------------------------------------------------------------- cdn chunks

namespace {
constexpr const char* kCdnChunkHeader =
    "session_id,chunk_id,dwait_ms,dopen_ms,dread_ms,dbe_ms,cache_level,"
    "chunk_bytes,pop,server,served_stale,shed,hedged,hedge_won,breaker,"
    "budget_denied,served_swr";
}

void append_csv_row(WriteBuffer& buf, const CdnChunkRecord& r) {
  buf.append_u64(r.session_id);
  buf.append(',');
  buf.append_u64(r.chunk_id);
  buf.append(',');
  buf.append_double_g6(r.dwait_ms);
  buf.append(',');
  buf.append_double_g6(r.dopen_ms);
  buf.append(',');
  buf.append_double_g6(r.dread_ms);
  buf.append(',');
  buf.append_double_g6(r.dbe_ms);
  buf.append(',');
  buf.append(cache_level_token(r.cache_level));
  buf.append(',');
  buf.append_u64(r.chunk_bytes);
  buf.append(',');
  buf.append_u64(r.pop);
  buf.append(',');
  buf.append_u64(r.server);
  buf.append(',');
  buf.append_bool01(r.served_stale);
  buf.append(',');
  buf.append_bool01(r.shed);
  buf.append(',');
  buf.append_bool01(r.hedged);
  buf.append(',');
  buf.append_bool01(r.hedge_won);
  buf.append(',');
  buf.append(cdn::to_string(r.breaker));
  buf.append(',');
  buf.append_bool01(r.budget_denied);
  buf.append(',');
  buf.append_bool01(r.served_swr);
  buf.append('\n');
}

void write_cdn_chunks_csv(std::ostream& out,
                          const std::vector<CdnChunkRecord>& records) {
  WriteBuffer buf(out);
  buf.append(kCdnChunkHeader);
  buf.append('\n');
  for (const CdnChunkRecord& r : records) append_csv_row(buf, r);
}

std::vector<CdnChunkRecord> read_cdn_chunks_csv(std::istream& in) {
  expect_header(in, kCdnChunkHeader, "cdn_chunks");
  std::vector<CdnChunkRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    expect_fields(f, 17, "cdn_chunks");
    CdnChunkRecord r;
    r.session_id = std::stoull(f[0]);
    r.chunk_id = static_cast<std::uint32_t>(std::stoul(f[1]));
    r.dwait_ms = std::stod(f[2]);
    r.dopen_ms = std::stod(f[3]);
    r.dread_ms = std::stod(f[4]);
    r.dbe_ms = std::stod(f[5]);
    r.cache_level = parse_cache_level(f[6]);
    r.chunk_bytes = std::stoull(f[7]);
    r.pop = static_cast<std::uint32_t>(std::stoul(f[8]));
    r.server = static_cast<std::uint32_t>(std::stoul(f[9]));
    r.served_stale = f[10] == "1";
    r.shed = f[11] == "1";
    r.hedged = f[12] == "1";
    r.hedge_won = f[13] == "1";
    r.breaker = parse_breaker_state(f[14]);
    r.budget_denied = f[15] == "1";
    r.served_swr = f[16] == "1";
    records.push_back(r);
  }
  return records;
}

// ------------------------------------------------------------ tcp snapshots

namespace {
constexpr const char* kTcpSnapshotHeader =
    "session_id,chunk_id,at_ms,srtt_ms,rttvar_ms,cwnd_segments,"
    "ssthresh_segments,mss_bytes,total_retrans,segments_out,bytes_acked,"
    "in_slow_start";
}

void append_csv_row(WriteBuffer& buf, const TcpSnapshotRecord& r) {
  buf.append_u64(r.session_id);
  buf.append(',');
  buf.append_u64(r.chunk_id);
  buf.append(',');
  buf.append_double_g6(r.at_ms);
  buf.append(',');
  buf.append_double_g6(r.info.srtt_ms);
  buf.append(',');
  buf.append_double_g6(r.info.rttvar_ms);
  buf.append(',');
  buf.append_u64(r.info.cwnd_segments);
  buf.append(',');
  buf.append_u64(r.info.ssthresh_segments);
  buf.append(',');
  buf.append_u64(r.info.mss_bytes);
  buf.append(',');
  buf.append_u64(r.info.total_retrans);
  buf.append(',');
  buf.append_u64(r.info.segments_out);
  buf.append(',');
  buf.append_u64(r.info.bytes_acked);
  buf.append(',');
  buf.append_bool01(r.info.in_slow_start);
  buf.append('\n');
}

void write_tcp_snapshots_csv(std::ostream& out,
                             const std::vector<TcpSnapshotRecord>& records) {
  WriteBuffer buf(out);
  buf.append(kTcpSnapshotHeader);
  buf.append('\n');
  for (const TcpSnapshotRecord& r : records) append_csv_row(buf, r);
}

std::vector<TcpSnapshotRecord> read_tcp_snapshots_csv(std::istream& in) {
  expect_header(in, kTcpSnapshotHeader, "tcp_snapshots");
  std::vector<TcpSnapshotRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    expect_fields(f, 12, "tcp_snapshots");
    TcpSnapshotRecord r;
    r.session_id = std::stoull(f[0]);
    r.chunk_id = static_cast<std::uint32_t>(std::stoul(f[1]));
    r.at_ms = std::stod(f[2]);
    r.info.srtt_ms = std::stod(f[3]);
    r.info.rttvar_ms = std::stod(f[4]);
    r.info.cwnd_segments = static_cast<std::uint32_t>(std::stoul(f[5]));
    r.info.ssthresh_segments = static_cast<std::uint32_t>(std::stoul(f[6]));
    r.info.mss_bytes = static_cast<std::uint32_t>(std::stoul(f[7]));
    r.info.total_retrans = std::stoull(f[8]);
    r.info.segments_out = std::stoull(f[9]);
    r.info.bytes_acked = std::stoull(f[10]);
    r.info.in_slow_start = f[11] == "1";
    records.push_back(r);
  }
  return records;
}

// ---------------------------------------------------------------- directory

namespace {

template <typename Reader>
auto read_file(const std::filesystem::path& path, Reader&& reader) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open " + path.string());
  return reader(in);
}

struct CsvFile {
  const char* name;
  const char* header;
};

/// The five files of an export directory, in Dataset stream order.
constexpr std::array<CsvFile, 5> kCsvFiles = {{
    {"player_sessions.csv", kPlayerSessionHeader},
    {"cdn_sessions.csv", kCdnSessionHeader},
    {"player_chunks.csv", kPlayerChunkHeader},
    {"cdn_chunks.csv", kCdnChunkHeader},
    {"tcp_snapshots.csv", kTcpSnapshotHeader},
}};

/// Call `fn` with stream `file` (kCsvFiles order) of `data`.
template <typename Fn>
decltype(auto) visit_stream(const Dataset& data, std::size_t file, Fn&& fn) {
  switch (file) {
    case 0: return fn(data.player_sessions);
    case 1: return fn(data.cdn_sessions);
    case 2: return fn(data.player_chunks);
    case 3: return fn(data.cdn_chunks);
    default: return fn(data.tcp_snapshots);
  }
}

/// Ranges formatted per window: two per worker leaves stealing room for
/// the shorter last range of each stream.
std::size_t window_ranges(const runtime::Executor* executor) {
  return 2 * (executor != nullptr ? executor->workers() : 1);
}

/// The one CSV writer behind export_dataset() and export_stream().  The
/// constructor opens all five files and writes their headers; every
/// write() appends a Dataset's rows; close() flushes and checks each
/// file.  write() cuts every stream into kExportRangeRows-row ranges,
/// formats a window of them into their own buffers (in parallel on a
/// multi-worker executor), then writes them in file order on the calling
/// thread: the bytes match a serial loop, and the formatted-but-unwritten
/// text stays within one window.
class CsvWriter {
 public:
  explicit CsvWriter(const std::filesystem::path& directory)
      : directory_(directory) {
    std::filesystem::create_directories(directory);
    for (std::size_t f = 0; f < kCsvFiles.size(); ++f) {
      out_[f].open(path(f));
      // Open failure, real or injected (export.open).
      if (failpoints::should_fail(failpoints::Site::kExportOpen)) {
        out_[f].setstate(std::ios::badbit);
      }
      if (!out_[f]) {
        throw sim::HostIoError("csv: cannot open " + path(f).string());
      }
      out_[f] << kCsvFiles[f].header << '\n';
    }
  }

  /// Append every row of `data`.  Throws sim::HostIoError as soon as a
  /// file's stream has failed (a short write latches badbit even while
  /// rows are still buffered), so a full disk stops the export early.
  void write(const Dataset& data, runtime::Executor* executor) {
    struct Range {
      std::size_t file;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<Range> ranges;
    for (std::size_t f = 0; f < kCsvFiles.size(); ++f) {
      const std::size_t rows = visit_stream(
          data, f, [](const auto& records) { return records.size(); });
      for (std::size_t begin = 0; begin < rows; begin += kExportRangeRows) {
        ranges.push_back({f, begin, std::min(begin + kExportRangeRows, rows)});
      }
    }

    const bool parallel = executor != nullptr && executor->workers() > 1;
    const std::size_t window = window_ranges(executor);
    std::vector<std::string> text(std::min(window, ranges.size()));
    for (std::size_t base = 0; base < ranges.size(); base += window) {
      const std::size_t count = std::min(window, ranges.size() - base);
      const auto format = [&](std::size_t k) {
        const Range& range = ranges[base + k];
        std::ostringstream stream;
        {
          WriteBuffer buf(stream);
          visit_stream(data, range.file, [&](const auto& records) {
            for (std::size_t i = range.begin; i < range.end; ++i) {
              append_csv_row(buf, records[i]);
            }
          });
        }
        text[k] = std::move(stream).str();
      };
      if (parallel) {
        executor->parallel_for(count, format, nullptr, "export");
      } else {
        for (std::size_t k = 0; k < count; ++k) format(k);
      }
      for (std::size_t k = 0; k < count; ++k) {
        std::ofstream& out = out_[ranges[base + k].file];
        out.write(text[k].data(),
                  static_cast<std::streamsize>(text[k].size()));
        text[k] = std::string();
      }
    }
    for (std::size_t f = 0; f < kCsvFiles.size(); ++f) {
      if (out_[f].bad()) {
        throw sim::HostIoError("csv: error writing " + path(f).string());
      }
    }
  }

  /// Flush and close every file.  A short write (full disk, or the
  /// export.write failpoint) throws sim::HostIoError, so the tool exits
  /// nonzero instead of leaving a truncated CSV behind with exit 0.
  void close() {
    for (std::size_t f = 0; f < kCsvFiles.size(); ++f) {
      if (failpoints::should_fail(failpoints::Site::kExportWrite)) {
        out_[f].setstate(std::ios::badbit);
      }
      out_[f].flush();
      if (out_[f].fail()) {
        throw sim::HostIoError("csv: error writing " + path(f).string());
      }
      out_[f].close();
    }
  }

 private:
  std::filesystem::path path(std::size_t file) const {
    return directory_ / kCsvFiles[file].name;
  }

  std::filesystem::path directory_;
  std::array<std::ofstream, kCsvFiles.size()> out_;
};

/// Move `from` onto the end of `to`.
template <typename Record>
void append_moved(std::vector<Record>& to, std::vector<Record>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

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
    append_moved(window.player_sessions, group->player_sessions);
    append_moved(window.cdn_sessions, group->cdn_sessions);
    append_moved(window.player_chunks, group->player_chunks);
    append_moved(window.cdn_chunks, group->cdn_chunks);
    append_moved(window.tcp_snapshots, group->tcp_snapshots);
    if (records >= window_records) {
      writer.write(window, executor);
      window.player_sessions.clear();
      window.cdn_sessions.clear();
      window.player_chunks.clear();
      window.cdn_chunks.clear();
      window.tcp_snapshots.clear();
      records = 0;
    }
  }
  writer.write(window, executor);
  writer.close();
}

Dataset import_dataset(const std::filesystem::path& directory) {
  Dataset data;
  data.player_sessions = read_file(directory / "player_sessions.csv",
                                   read_player_sessions_csv);
  data.cdn_sessions =
      read_file(directory / "cdn_sessions.csv", read_cdn_sessions_csv);
  data.player_chunks =
      read_file(directory / "player_chunks.csv", read_player_chunks_csv);
  data.cdn_chunks = read_file(directory / "cdn_chunks.csv", read_cdn_chunks_csv);
  data.tcp_snapshots =
      read_file(directory / "tcp_snapshots.csv", read_tcp_snapshots_csv);
  canonicalize(data);
  return data;
}

}  // namespace vstream::telemetry
