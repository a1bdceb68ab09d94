#include "telemetry/export.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
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

/// Open failure, real or injected (export.open): sim::HostIoError.
void check_open(std::ofstream& out, const std::filesystem::path& path) {
  if (failpoints::should_fail(failpoints::Site::kExportOpen)) {
    out.setstate(std::ios::badbit);
  }
  if (!out) throw sim::HostIoError("csv: cannot open " + path.string());
}

/// Per-file completion check: a short write (full disk) latches the
/// stream's badbit; detect it after the final flush so the tool exits
/// nonzero instead of leaving a truncated CSV behind with exit 0.
void check_written(std::ofstream& out, const std::filesystem::path& path) {
  if (failpoints::should_fail(failpoints::Site::kExportWrite)) {
    out.setstate(std::ios::badbit);
  }
  out.flush();
  if (out.fail()) {
    throw sim::HostIoError("csv: error writing " + path.string());
  }
}

template <typename Reader>
auto read_file(const std::filesystem::path& path, Reader&& reader) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open " + path.string());
  return reader(in);
}

}  // namespace

void export_dataset(const Dataset& data,
                    const std::filesystem::path& directory,
                    runtime::Executor* executor) {
  std::filesystem::create_directories(directory);

  // Every file is cut into contiguous row ranges (at least one, so an
  // empty stream still gets its header).  Ranges are formatted into
  // their own buffers in parallel, a window at a time, then written in
  // file order on the calling thread, so the bytes match a serial loop
  // and the formatted-but-unwritten text stays within one window.
  struct File {
    const char* name;
    const char* header;
    std::size_t rows;
    std::function<void(WriteBuffer&, std::size_t, std::size_t)> format;
  };
  const auto rows_of = [](const auto& records) {
    return [&records](WriteBuffer& buf, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) append_csv_row(buf, records[i]);
    };
  };
  const std::array<File, 5> files = {{
      {"player_sessions.csv", kPlayerSessionHeader, data.player_sessions.size(),
       rows_of(data.player_sessions)},
      {"cdn_sessions.csv", kCdnSessionHeader, data.cdn_sessions.size(),
       rows_of(data.cdn_sessions)},
      {"player_chunks.csv", kPlayerChunkHeader, data.player_chunks.size(),
       rows_of(data.player_chunks)},
      {"cdn_chunks.csv", kCdnChunkHeader, data.cdn_chunks.size(),
       rows_of(data.cdn_chunks)},
      {"tcp_snapshots.csv", kTcpSnapshotHeader, data.tcp_snapshots.size(),
       rows_of(data.tcp_snapshots)},
  }};

  // A window of two ranges per worker leaves stealing room for the
  // shorter last range of each file.
  struct Range {
    std::size_t file;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Range> ranges;
  for (std::size_t f = 0; f < files.size(); ++f) {
    std::size_t begin = 0;
    do {
      const std::size_t end = std::min(begin + kExportRangeRows, files[f].rows);
      ranges.push_back({f, begin, end});
      begin = end;
    } while (begin < files[f].rows);
  }

  const bool parallel = executor != nullptr && executor->workers() > 1;
  const std::size_t window = parallel ? 2 * executor->workers() : 1;
  std::vector<std::string> text(window);
  std::ofstream out;
  for (std::size_t base = 0; base < ranges.size(); base += window) {
    const std::size_t count = std::min(window, ranges.size() - base);
    const auto format = [&](std::size_t k) {
      const Range& range = ranges[base + k];
      const File& file = files[range.file];
      std::ostringstream stream;
      {
        WriteBuffer buf(stream);
        if (range.begin == 0) {
          buf.append(file.header);
          buf.append('\n');
        }
        file.format(buf, range.begin, range.end);
      }
      text[k] = std::move(stream).str();
    };
    if (parallel) {
      executor->parallel_for(count, format, nullptr, "export");
    } else {
      format(0);
    }
    for (std::size_t k = 0; k < count; ++k) {
      const Range& range = ranges[base + k];
      const std::filesystem::path path = directory / files[range.file].name;
      if (range.begin == 0) {
        out = std::ofstream(path);
        check_open(out, path);
      }
      out.write(text[k].data(), static_cast<std::streamsize>(text[k].size()));
      text[k] = std::string();
      if (range.end == files[range.file].rows) {
        check_written(out, path);
        out.close();
      }
    }
  }
}

void export_stream(SessionGroupStream& groups,
                   const std::filesystem::path& directory,
                   runtime::Executor* executor) {
  std::filesystem::create_directories(directory);
  const auto open = [&](const char* name) {
    std::ofstream out(directory / name);
    check_open(out, directory / name);
    return out;
  };
  std::ofstream ps_out = open("player_sessions.csv");
  std::ofstream cs_out = open("cdn_sessions.csv");
  std::ofstream pc_out = open("player_chunks.csv");
  std::ofstream cc_out = open("cdn_chunks.csv");
  std::ofstream ts_out = open("tcp_snapshots.csv");
  // One failure check covering all five streams, evaluated after every
  // drained window (fail fast on a mid-export disk error — badbit
  // latches even while rows are still buffered) and once after the
  // final buffer flush.  The export.write failpoint fails all five, the
  // shape a full disk actually has.
  const std::array<std::pair<std::ofstream*, const char*>, 5> streams = {{
      {&ps_out, "player_sessions.csv"},
      {&cs_out, "cdn_sessions.csv"},
      {&pc_out, "player_chunks.csv"},
      {&cc_out, "cdn_chunks.csv"},
      {&ts_out, "tcp_snapshots.csv"},
  }};
  const auto check_streams = [&] {
    if (failpoints::should_fail(failpoints::Site::kExportWrite)) {
      for (const auto& [out, name] : streams) out->setstate(std::ios::badbit);
    }
    for (const auto& [out, name] : streams) {
      if (out->fail()) {
        throw sim::HostIoError("csv: error writing " +
                               (directory / name).string());
      }
    }
  };
  {
    WriteBuffer ps(ps_out), cs(cs_out), pc(pc_out), cc(cc_out), ts(ts_out);
    ps.append(kPlayerSessionHeader);
    ps.append('\n');
    cs.append(kCdnSessionHeader);
    cs.append('\n');
    pc.append(kPlayerChunkHeader);
    pc.append('\n');
    cc.append(kCdnChunkHeader);
    cc.append('\n');
    ts.append(kTcpSnapshotHeader);
    ts.append('\n');

    // The group stream is a serial pull source, but formatting dominates:
    // pull a window of groups, then drain each of the five streams over
    // the whole window as an independent task (each task touches only its
    // own buffer + file).  Rows keep stream order per file, so the bytes
    // match the serial loop exactly.
    constexpr std::size_t kWindowGroups = 256;
    std::vector<SessionRecordGroup> window;
    window.reserve(kWindowGroups);
    const std::array<std::function<void()>, 5> drains = {
        [&] {
          for (const auto& g : window) {
            for (const auto& r : g.player_sessions) append_csv_row(ps, r);
          }
        },
        [&] {
          for (const auto& g : window) {
            for (const auto& r : g.cdn_sessions) append_csv_row(cs, r);
          }
        },
        [&] {
          for (const auto& g : window) {
            for (const auto& r : g.player_chunks) append_csv_row(pc, r);
          }
        },
        [&] {
          for (const auto& g : window) {
            for (const auto& r : g.cdn_chunks) append_csv_row(cc, r);
          }
        },
        [&] {
          for (const auto& g : window) {
            for (const auto& r : g.tcp_snapshots) append_csv_row(ts, r);
          }
        },
    };
    const auto drain_window = [&] {
      if (window.empty()) return;
      if (executor != nullptr && executor->workers() > 1) {
        executor->parallel_for(drains.size(),
                               [&](std::size_t i) { drains[i](); });
      } else {
        for (const auto& drain : drains) drain();
      }
      window.clear();
      check_streams();
    };
    while (std::optional<SessionRecordGroup> group = groups.next()) {
      window.push_back(std::move(*group));
      if (window.size() >= kWindowGroups) drain_window();
    }
    drain_window();
  }  // buffers flush before the streams close
  for (const auto& [out, name] : streams) out->flush();
  check_streams();
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
