#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "failpoints/failpoint.h"
#include "faults/fault_schedule.h"
#include "runtime/executor.h"
#include "sim/host_error.h"
#include "telemetry/join.h"
#include "telemetry/record_schema.h"
#include "telemetry/spill_format.h"
#include "workload/scenario.h"

namespace vstream::telemetry {
namespace {

Dataset sample_dataset() {
  Dataset d;
  PlayerSessionRecord ps;
  ps.session_id = 42;
  ps.client_ip = net::make_ip(10, 1, 2, 3);
  ps.user_agent = "Chrome/Windows";
  ps.video_duration_s = 123.5;
  ps.start_time_ms = 1'000.25;
  ps.startup_ms = 812.5;
  ps.chunks_requested = 7;
  ps.completed = false;
  d.player_sessions.push_back(ps);

  CdnSessionRecord cs;
  cs.session_id = 42;
  cs.observed_ip = net::make_ip(198, 18, 0, 9);
  cs.observed_user_agent = "Chrome/Windows";
  cs.pop = 2;
  cs.server = 3;
  cs.org = "Enterprise#1";
  cs.access = net::AccessType::kEnterprise;
  cs.city = "New York";
  cs.country = "US";
  cs.client_distance_km = 812.75;
  d.cdn_sessions.push_back(cs);

  PlayerChunkRecord pc;
  pc.session_id = 42;
  pc.chunk_id = 3;
  pc.request_sent_ms = 18'000.5;
  pc.dfb_ms = 240.125;
  pc.dlb_ms = 1'900.5;
  pc.bitrate_kbps = 2'500;
  pc.rebuffer_ms = 35.5;
  pc.rebuffer_count = 1;
  pc.visible = false;
  pc.avg_fps = 27.5;
  pc.dropped_frames = 15;
  pc.total_frames = 180;
  pc.retries = 2;
  pc.timeouts = 1;
  pc.failed_over = true;
  pc.recovery_ms = 4'250.5;
  d.player_chunks.push_back(pc);

  CdnChunkRecord cc;
  cc.session_id = 42;
  cc.chunk_id = 3;
  cc.dwait_ms = 0.25;
  cc.dopen_ms = 0.5;
  cc.dread_ms = 76.25;
  cc.dbe_ms = 64.5;
  cc.cache_level = cdn::CacheLevel::kMiss;
  cc.chunk_bytes = 1'875'000;
  cc.pop = 1;
  cc.server = 3;
  cc.served_stale = true;
  cc.shed = true;
  cc.hedged = true;
  cc.hedge_won = true;
  cc.breaker = cdn::BreakerState::kHalfOpen;
  cc.budget_denied = true;
  cc.served_swr = true;
  d.cdn_chunks.push_back(cc);

  TcpSnapshotRecord ts;
  ts.session_id = 42;
  ts.chunk_id = 3;
  ts.at_ms = 18'500.0;
  ts.info.srtt_ms = 48.5;
  ts.info.rttvar_ms = 6.25;
  ts.info.cwnd_segments = 64;
  ts.info.ssthresh_segments = 48;
  ts.info.mss_bytes = 1'460;
  ts.info.total_retrans = 12;
  ts.info.segments_out = 4'096;
  ts.info.bytes_acked = 5'980'160;
  ts.info.in_slow_start = true;
  d.tcp_snapshots.push_back(ts);
  return d;
}

TEST(ExportTest, PlayerSessionRoundTrip) {
  const Dataset d = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, d.player_sessions);
  const auto loaded = read_csv<PlayerSessionRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  const PlayerSessionRecord& r = loaded[0];
  EXPECT_EQ(r.session_id, 42u);
  EXPECT_EQ(r.client_ip, net::make_ip(10, 1, 2, 3));
  EXPECT_EQ(r.user_agent, "Chrome/Windows");
  EXPECT_DOUBLE_EQ(r.video_duration_s, 123.5);
  EXPECT_DOUBLE_EQ(r.startup_ms, 812.5);
  EXPECT_EQ(r.chunks_requested, 7u);
  EXPECT_FALSE(r.completed);
}

TEST(ExportTest, CdnSessionRoundTrip) {
  const Dataset d = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, d.cdn_sessions);
  const auto loaded = read_csv<CdnSessionRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  const CdnSessionRecord& r = loaded[0];
  EXPECT_EQ(r.org, "Enterprise#1");
  EXPECT_EQ(r.access, net::AccessType::kEnterprise);
  EXPECT_EQ(r.city, "New York");
  EXPECT_DOUBLE_EQ(r.client_distance_km, 812.75);
}

TEST(ExportTest, PlayerChunkRoundTrip) {
  const Dataset d = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, d.player_chunks);
  const auto loaded = read_csv<PlayerChunkRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  const PlayerChunkRecord& r = loaded[0];
  EXPECT_DOUBLE_EQ(r.dfb_ms, 240.125);
  EXPECT_FALSE(r.visible);
  EXPECT_EQ(r.dropped_frames, 15u);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.timeouts, 1u);
  EXPECT_TRUE(r.failed_over);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 4'250.5);
}

TEST(ExportTest, CdnChunkRoundTrip) {
  const Dataset d = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, d.cdn_chunks);
  const auto loaded = read_csv<CdnChunkRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cache_level, cdn::CacheLevel::kMiss);
  EXPECT_EQ(loaded[0].chunk_bytes, 1'875'000u);
  EXPECT_DOUBLE_EQ(loaded[0].dbe_ms, 64.5);
  EXPECT_EQ(loaded[0].pop, 1u);
  EXPECT_EQ(loaded[0].server, 3u);
  EXPECT_TRUE(loaded[0].served_stale);
  EXPECT_TRUE(loaded[0].shed);
  EXPECT_TRUE(loaded[0].hedged);
  EXPECT_TRUE(loaded[0].hedge_won);
  EXPECT_EQ(loaded[0].breaker, cdn::BreakerState::kHalfOpen);
  EXPECT_TRUE(loaded[0].budget_denied);
  EXPECT_TRUE(loaded[0].served_swr);
}

// The six overload-protection columns (shed/hedged/hedge_won/breaker/
// budget_denied/served_swr) are flags and an enum: they must survive the
// export -> import -> re-export cycle exactly, byte for byte.
TEST(ExportTest, OverloadColumnsAreAFixedPoint) {
  std::stringstream first;
  const Dataset d = sample_dataset();
  write_csv(first, d.cdn_chunks);
  const std::string first_csv = first.str();
  const auto once = read_csv<CdnChunkRecord>(first);

  std::stringstream second;
  write_csv(second, once);
  EXPECT_EQ(second.str(), first_csv);

  ASSERT_EQ(once.size(), 1u);
  EXPECT_TRUE(once[0].shed);
  EXPECT_TRUE(once[0].hedged);
  EXPECT_TRUE(once[0].hedge_won);
  EXPECT_EQ(once[0].breaker, cdn::BreakerState::kHalfOpen);
  EXPECT_TRUE(once[0].budget_denied);
  EXPECT_TRUE(once[0].served_swr);

  // Every breaker state names itself uniquely in the CSV.
  Dataset states = sample_dataset();
  states.cdn_chunks[0].breaker = cdn::BreakerState::kClosed;
  CdnChunkRecord open_chunk = states.cdn_chunks[0];
  open_chunk.breaker = cdn::BreakerState::kOpen;
  states.cdn_chunks.push_back(open_chunk);
  std::stringstream buffer;
  write_csv(buffer, states.cdn_chunks);
  const auto loaded = read_csv<CdnChunkRecord>(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].breaker, cdn::BreakerState::kClosed);
  EXPECT_EQ(loaded[1].breaker, cdn::BreakerState::kOpen);
}

TEST(ExportTest, TcpSnapshotRoundTrip) {
  const Dataset d = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, d.tcp_snapshots);
  const auto loaded = read_csv<TcpSnapshotRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].info.srtt_ms, 48.5);
  EXPECT_EQ(loaded[0].info.total_retrans, 12u);
  EXPECT_TRUE(loaded[0].info.in_slow_start);
}

TEST(ExportTest, RejectsBadHeader) {
  std::stringstream buffer("not,a,header\n");
  EXPECT_THROW(read_csv<PlayerChunkRecord>(buffer), std::runtime_error);
}

TEST(ExportTest, RejectsShortRow) {
  std::stringstream buffer;
  write_csv<CdnChunkRecord>(buffer, {});
  std::stringstream in(buffer.str() + "1,2,3\n");
  EXPECT_THROW(read_csv<CdnChunkRecord>(in), std::runtime_error);
}

TEST(ExportTest, RejectsUnknownEnums) {
  std::stringstream buffer;
  write_csv<CdnChunkRecord>(buffer, {});
  std::stringstream in(buffer.str() + "1,2,0.1,0.2,0.3,0,warp-hit,100,0,0,0\n");
  EXPECT_THROW(read_csv<CdnChunkRecord>(in), std::runtime_error);
}

TEST(ExportTest, EmptyStreamsRoundTrip) {
  std::stringstream buffer;
  write_csv<TcpSnapshotRecord>(buffer, {});
  EXPECT_TRUE(read_csv<TcpSnapshotRecord>(buffer).empty());
}

/// Read the CSV of `records` with the first row's field of `column`
/// replaced by `text`: the error message, or "" when the row is accepted.
template <typename Rec>
std::string field_error(const std::vector<Rec>& records,
                        const std::string& column, const std::string& text) {
  std::ostringstream out;
  write_csv(out, records);
  std::istringstream lines(out.str());
  std::string header, row;
  std::getline(lines, header);
  std::getline(lines, row);
  std::vector<std::string> names, fields;
  std::string field;
  for (std::istringstream h(header); std::getline(h, field, ',');) {
    names.push_back(field);
  }
  for (std::istringstream r(row); std::getline(r, field, ',');) {
    fields.push_back(field);
  }
  std::string edited;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    edited += (i == 0 ? "" : ",") + (names[i] == column ? text : fields[i]);
  }
  std::istringstream in(header + "\n" + edited + "\n");
  try {
    read_csv<Rec>(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

std::string player_chunk_error(const std::string& column,
                               const std::string& text) {
  return field_error(sample_dataset().player_chunks, column, text);
}

/// `text` in `column` of `stream` is rejected with a message naming the
/// stream, the line and the column.
template <typename Rec>
void expect_rejected_in(const std::string& stream,
                        const std::vector<Rec>& records,
                        const std::string& column, const std::string& text) {
  SCOPED_TRACE(stream + "." + column + " = '" + text + "'");
  const std::string error = field_error(records, column, text);
  EXPECT_NE(error.find(stream), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find(column), std::string::npos) << error;
}

void expect_rejected(const std::string& column, const std::string& text) {
  expect_rejected_in("player_chunks", sample_dataset().player_chunks, column,
                     text);
}

TEST(ExportTest, StrictFieldsAcceptTheSampleRow) {
  EXPECT_EQ(player_chunk_error("chunk_id", "3"), "");
}

TEST(ExportTest, RejectsIntegerBeyondItsColumnType) {
  expect_rejected("chunk_id", "4294967296");
  expect_rejected("bitrate_kbps", "99999999999999999999");
}

TEST(ExportTest, RejectsIntegerThatIsNotAllDigits) {
  expect_rejected("bitrate_kbps", "-1");
  expect_rejected("bitrate_kbps", "+1");
  expect_rejected("bitrate_kbps", " 1");
  expect_rejected("bitrate_kbps", "1.5");
  expect_rejected("bitrate_kbps", "0x10");
  expect_rejected("bitrate_kbps", "");
}

TEST(ExportTest, RejectsDoubleWithTrailingText) {
  expect_rejected("request_sent_ms", "1.5x");
  expect_rejected("request_sent_ms", "1.5 ");
  expect_rejected("request_sent_ms", "");
}

TEST(ExportTest, RejectsBoolOtherThanZeroOrOne) {
  expect_rejected("visible", "yes");
  expect_rejected("failed_over", "true");
  expect_rejected("failed_over", "2");
  expect_rejected("failed_over", "");
}

TEST(ExportTest, RejectsIpWithSignOrBlank) {
  const std::vector<PlayerSessionRecord> sessions =
      sample_dataset().player_sessions;
  EXPECT_EQ(field_error(sessions, "client_ip", "20.0.116.155"), "");
  expect_rejected_in("player_sessions", sessions, "client_ip",
                     "+20.0.116.155");
  expect_rejected_in("player_sessions", sessions, "client_ip",
                     " 20.0.116.155");
  expect_rejected_in("player_sessions", sessions, "client_ip",
                     "20.0.116.155 ");
  expect_rejected_in("player_sessions", sessions, "client_ip",
                     "20.0.116.1555");
}

TEST(ExportTest, U64MaxRoundTripsInAU64Column) {
  std::vector<CdnChunkRecord> chunks = sample_dataset().cdn_chunks;
  chunks[0].chunk_bytes = UINT64_MAX;
  std::stringstream buffer;
  write_csv(buffer, chunks);
  const auto loaded = read_csv<CdnChunkRecord>(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].chunk_bytes, UINT64_MAX);
}

/// Serialize all five streams to one string (byte-equality of the export).
std::string export_string(const Dataset& data) {
  std::ostringstream out;
  write_csv(out, data.player_sessions);
  write_csv(out, data.cdn_sessions);
  write_csv(out, data.player_chunks);
  write_csv(out, data.cdn_chunks);
  write_csv(out, data.tcp_snapshots);
  return out.str();
}

// The CSV codec must be a fixed point: export -> import -> re-export is
// byte-identical.  Printed doubles may round relative to the in-memory
// values, but a value that survived one print/parse cycle must print the
// same way forever — otherwise archived datasets drift on every rewrite.
TEST(ExportTest, ReExportIsFixedPointOnSampleDataset) {
  std::stringstream first;
  const Dataset d = sample_dataset();
  write_csv(first, d.player_chunks);
  const auto once = read_csv<PlayerChunkRecord>(first);

  std::stringstream second;
  write_csv(second, once);
  const auto twice = read_csv<PlayerChunkRecord>(second);

  std::stringstream third;
  write_csv(third, twice);
  EXPECT_EQ(second.str(), third.str());

  // The PR-1 recovery fields survive the cycle exactly (they are integral
  // or carry few fractional digits).
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_EQ(twice[0].retries, 2u);
  EXPECT_EQ(twice[0].timeouts, 1u);
  EXPECT_TRUE(twice[0].failed_over);
  EXPECT_DOUBLE_EQ(twice[0].recovery_ms, 4'250.5);
}

// Same fixed-point property on a full faulted engine run: every stream,
// including the recovery columns (retries/timeouts/failed_over/recovery_ms),
// the CDN placement columns (pop/server), served_stale and completed, is
// byte-stable after one import/export cycle.
TEST(ExportTest, ReExportIsFixedPointOnFaultedEngineRun) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 60;
  engine::RunOptions options;
  options.shards = 2;
  options.faults = faults::FaultSchedule::scripted({
      {faults::FaultKind::kServerCrash, 5'000.0, 60'000.0, 0, 0, 1.0},
      {faults::FaultKind::kBackendOutage, 30'000.0, 20'000.0, 0, 0, 1.0},
  });
  const engine::RunResult run =
      engine::run_simulation(scenario, std::move(options));
  ASSERT_FALSE(run.dataset.player_chunks.empty());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_fixed_point_test";
  std::filesystem::remove_all(dir);
  export_dataset(run.dataset, dir);
  const Dataset loaded = import_dataset(dir);
  std::filesystem::remove_all(dir);

  // One cycle may round in-memory doubles to printed precision; a second
  // cycle must reproduce the first export byte for byte.
  const std::string first = export_string(loaded);
  Dataset reloaded;
  {
    std::stringstream s;
    write_csv(s, loaded.player_sessions);
    reloaded.player_sessions = read_csv<PlayerSessionRecord>(s);
  }
  {
    std::stringstream s;
    write_csv(s, loaded.cdn_sessions);
    reloaded.cdn_sessions = read_csv<CdnSessionRecord>(s);
  }
  {
    std::stringstream s;
    write_csv(s, loaded.player_chunks);
    reloaded.player_chunks = read_csv<PlayerChunkRecord>(s);
  }
  {
    std::stringstream s;
    write_csv(s, loaded.cdn_chunks);
    reloaded.cdn_chunks = read_csv<CdnChunkRecord>(s);
  }
  {
    std::stringstream s;
    write_csv(s, loaded.tcp_snapshots);
    reloaded.tcp_snapshots = read_csv<TcpSnapshotRecord>(s);
  }
  EXPECT_EQ(export_string(reloaded), first);

  // The faulted run actually exercised the recovery columns.
  std::uint64_t retries = 0, failovers = 0, incomplete = 0;
  for (const PlayerChunkRecord& c : loaded.player_chunks) {
    retries += c.retries;
    failovers += c.failed_over ? 1 : 0;
  }
  for (const PlayerSessionRecord& s : loaded.player_sessions) {
    incomplete += s.completed ? 0 : 1;
  }
  EXPECT_GT(retries + failovers + incomplete, 0u);
}

// ------------------------------------------------ parallel range export

/// `rows` records in every stream, each row distinct.
Dataset dataset_with_rows(std::size_t rows) {
  const Dataset one = sample_dataset();
  Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t id = i / 3;
    const auto chunk = static_cast<std::uint32_t>(i % 3);
    PlayerSessionRecord ps = one.player_sessions[0];
    ps.session_id = i;
    ps.startup_ms = 0.5 * static_cast<double>(i);
    d.player_sessions.push_back(ps);
    CdnSessionRecord cs = one.cdn_sessions[0];
    cs.session_id = i;
    cs.server = static_cast<std::uint32_t>(i % 11);
    d.cdn_sessions.push_back(cs);
    PlayerChunkRecord pc = one.player_chunks[0];
    pc.session_id = id;
    pc.chunk_id = chunk;
    pc.dfb_ms = 1.25 * static_cast<double>(i);
    d.player_chunks.push_back(pc);
    CdnChunkRecord cc = one.cdn_chunks[0];
    cc.session_id = id;
    cc.chunk_id = chunk;
    cc.chunk_bytes = 1'000 + i;
    d.cdn_chunks.push_back(cc);
    TcpSnapshotRecord ts = one.tcp_snapshots[0];
    ts.session_id = id;
    ts.chunk_id = chunk;
    ts.info.segments_out = 7 * i;
    d.tcp_snapshots.push_back(ts);
  }
  return d;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The five files' names and bytes as the single-buffer stream writers
/// produce them — the reference bytes for every directory export.
std::vector<std::pair<std::string, std::string>> reference_files(
    const Dataset& d) {
  std::ostringstream ps, cs, pc, cc, ts;
  write_csv(ps, d.player_sessions);
  write_csv(cs, d.cdn_sessions);
  write_csv(pc, d.player_chunks);
  write_csv(cc, d.cdn_chunks);
  write_csv(ts, d.tcp_snapshots);
  return {{"player_sessions.csv", ps.str()}, {"cdn_sessions.csv", cs.str()},
          {"player_chunks.csv", pc.str()},   {"cdn_chunks.csv", cc.str()},
          {"tcp_snapshots.csv", ts.str()}};
}

TEST(ExportTest, ParallelRangesMatchSerialExportByteForByte) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "vstream_export_ranges";
  runtime::Executor executor(4);
  constexpr std::size_t kRange = kExportRangeRows;
  std::vector<std::pair<std::string, Dataset>> cases;
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, kRange - 1, kRange, kRange + 1,
        5 * kRange + 17}) {
    cases.emplace_back("rows = " + std::to_string(rows),
                       dataset_with_rows(rows));
  }
  // A 4-worker window is 8 ranges.  Exactly one window: its text is
  // written only after the last format run.  One window plus one range:
  // the second run writes the first window while formatting one range.
  {
    Dataset d = dataset_with_rows(2 * kRange);  // 2 ranges per stream
    d.player_sessions.resize(kRange);
    cases.emplace_back("one window plus one range (9 ranges)", d);
    d.cdn_sessions.resize(kRange / 2);
    cases.emplace_back("exactly one window (8 ranges)", d);
  }
  for (const auto& [name, d] : cases) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(root);
    export_dataset(d, root / "serial");
    export_dataset(d, root / "parallel", &executor);

    for (const auto& [name, bytes] : reference_files(d)) {
      EXPECT_EQ(file_bytes(root / "serial" / name), bytes) << name;
      EXPECT_EQ(file_bytes(root / "parallel" / name), bytes) << name;
    }
  }
  std::filesystem::remove_all(root);
}

// ------------------------------------------------------ streaming export

/// Records per export_stream() window at `workers` workers: two
/// kExportRangeRows ranges per worker.
constexpr std::size_t window_records(std::size_t workers) {
  return 2 * workers * kExportRangeRows;
}

/// A canonical dataset that spans several export_stream() windows even at
/// 4 workers: chunk counts vary per session, some sessions lack whole
/// streams (no player session, no CDN session, no chunks, no snapshots),
/// and one session alone is larger than a 4-worker window.
Dataset multi_window_dataset() {
  const Dataset one = sample_dataset();
  constexpr std::uint64_t kSessions = 2'000;
  constexpr std::uint64_t kHugeSession = 1'000;
  Dataset d;
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    if (id % 7 != 3) {
      PlayerSessionRecord ps = one.player_sessions[0];
      ps.session_id = id;
      ps.startup_ms = 0.25 * static_cast<double>(id);
      d.player_sessions.push_back(ps);
    }
    if (id % 5 != 1) {
      CdnSessionRecord cs = one.cdn_sessions[0];
      cs.session_id = id;
      cs.server = static_cast<std::uint32_t>(id % 13);
      d.cdn_sessions.push_back(cs);
    }
    const std::uint32_t chunks =
        id % 11 == 4 ? 0 : static_cast<std::uint32_t>(id * 7 % 40);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      PlayerChunkRecord pc = one.player_chunks[0];
      pc.session_id = id;
      pc.chunk_id = c;
      pc.dfb_ms = 1.5 * c + static_cast<double>(id);
      d.player_chunks.push_back(pc);
      CdnChunkRecord cc = one.cdn_chunks[0];
      cc.session_id = id;
      cc.chunk_id = c;
      cc.chunk_bytes = 1'000 + 40 * id + c;
      d.cdn_chunks.push_back(cc);
    }
    const std::size_t snapshots = id == kHugeSession ? window_records(4) + 100
                                  : id % 9 == 2      ? 0
                                                     : 2 * chunks;
    for (std::size_t k = 0; k < snapshots; ++k) {
      TcpSnapshotRecord ts = one.tcp_snapshots[0];
      ts.session_id = id;
      ts.chunk_id = static_cast<std::uint32_t>(k / 2);
      ts.at_ms = 10.0 * static_cast<double>(k);
      ts.info.segments_out = id + k;
      d.tcp_snapshots.push_back(ts);
    }
  }
  return d;
}

std::size_t record_count(const Dataset& d) {
  return d.player_sessions.size() + d.cdn_sessions.size() +
         d.player_chunks.size() + d.cdn_chunks.size() + d.tcp_snapshots.size();
}

TEST(ExportStreamTest, MatchesExportDatasetAcrossWindows) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "vstream_export_stream";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const Dataset d = multi_window_dataset();
  ASSERT_GT(record_count(d), 3 * window_records(4));

  // The same sessions as a two-file spill set, alternating files.
  SpillSet spill;
  {
    SpillWriter even(root / "shard-0.vspill");
    SpillWriter odd(root / "shard-1.vspill");
    DatasetGroupStream groups(d);
    while (std::optional<SessionRecordGroup> group = groups.next()) {
      (group->session_id % 2 == 0 ? even : odd).write(*group);
    }
    even.close();
    odd.close();
  }
  spill.add_file(root / "shard-0.vspill");
  spill.add_file(root / "shard-1.vspill");

  const auto expected = reference_files(d);
  export_dataset(d, root / "dataset");
  for (const auto& [name, bytes] : expected) {
    ASSERT_TRUE(file_bytes(root / "dataset" / name) == bytes) << name;
  }

  runtime::Executor executor(4);
  for (runtime::Executor* exec : {static_cast<runtime::Executor*>(nullptr),
                                  &executor}) {
    for (const bool from_spill : {false, true}) {
      SCOPED_TRACE(std::string(exec == nullptr ? "serial" : "4 workers") +
                   (from_spill ? ", from spill" : ", from dataset"));
      std::unique_ptr<SessionGroupStream> groups =
          from_spill ? spill.open() : std::make_unique<DatasetGroupStream>(d);
      const std::filesystem::path dir = root / "stream";
      std::filesystem::remove_all(dir);
      export_stream(*groups, dir, exec);
      for (const auto& [name, bytes] : expected) {
        // Several MiB per file: report the file, not a diff of it.
        EXPECT_TRUE(file_bytes(dir / name) == bytes) << name;
      }
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ExportStreamTest, EmptyStreamWritesHeadersOnly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_export_stream_empty";
  std::filesystem::remove_all(dir);
  const Dataset empty;
  DatasetGroupStream groups(empty);
  runtime::Executor executor(4);
  export_stream(groups, dir, &executor);
  for (const auto& [name, bytes] : reference_files(empty)) {
    EXPECT_EQ(file_bytes(dir / name), bytes) << name;
  }
  std::filesystem::remove_all(dir);
}

/// A group stream that counts the groups pulled from it.
class CountingGroupStream final : public SessionGroupStream {
 public:
  explicit CountingGroupStream(const Dataset& data) : groups_(data) {}
  std::optional<SessionRecordGroup> next() override {
    std::optional<SessionRecordGroup> group = groups_.next();
    if (group.has_value()) ++pulled;
    return group;
  }
  std::size_t pulled = 0;

 private:
  DatasetGroupStream groups_;
};

TEST(ExportStreamTest, FullDiskStopsTheExportAtTheFirstWindow) {
  // A file that refuses every write — the device that is always full —
  // must fail the export as soon as a window's rows reach it, not after
  // the whole stream has been pulled and formatted.
  const std::filesystem::path full_device = "/dev/full";
  if (!std::filesystem::exists(full_device)) {
    GTEST_SKIP() << "no always-full device";
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_export_stream_full";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink(full_device, dir / "tcp_snapshots.csv");
  const Dataset d = multi_window_dataset();
  CountingGroupStream groups(d);
  EXPECT_THROW(export_stream(groups, dir), sim::HostIoError);
  EXPECT_GT(groups.pulled, 0u);
  EXPECT_LT(groups.pulled, d.player_sessions.size() / 2);
  std::filesystem::remove_all(dir);
}

TEST(ExportTest, FullDiskStopsDatasetExportAfterTheFailedWindow) {
  // export_dataset() hands the writer the whole dataset at once; a file
  // that refuses every write must still stop it after the window whose
  // write failed, not after formatting every later window.  Ranges go in
  // stream order, so the last stream's rows are never written.
  const std::filesystem::path full_device = "/dev/full";
  if (!std::filesystem::exists(full_device)) {
    GTEST_SKIP() << "no always-full device";
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_export_dataset_full";
  const Dataset d = dataset_with_rows(5 * kExportRangeRows + 17);
  runtime::Executor executor(4);
  for (runtime::Executor* exec : {static_cast<runtime::Executor*>(nullptr),
                                  &executor}) {
    SCOPED_TRACE(exec == nullptr ? "serial" : "4 workers");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::create_symlink(full_device, dir / "player_sessions.csv");
    EXPECT_THROW(export_dataset(d, dir, exec), sim::HostIoError);
    // Several MiB when it fails: report the size, not a diff.
    const std::string snapshots = file_bytes(dir / "tcp_snapshots.csv");
    EXPECT_TRUE(snapshots == csv_header<TcpSnapshotRecord>() + "\n")
        << "tcp_snapshots.csv holds " << snapshots.size() << " bytes";
  }
  std::filesystem::remove_all(dir);
}

class ExportFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoints::Registry::instance().disarm_all(); }
  void TearDown() override {
    failpoints::Registry::instance().disarm_all();
    std::filesystem::remove_all(dir_);
  }
  // One directory per test: ctest runs the tests as concurrent processes.
  const std::filesystem::path dir_ =
      std::filesystem::temp_directory_path() /
      (std::string("vstream_export_fp_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
};

TEST_F(ExportFailpointTest, ParallelExportOpenFailureThrowsHostIoError) {
  runtime::Executor executor(4);
  const Dataset d = dataset_with_rows(2 * kExportRangeRows + 3);
  // Fire on the third file's open: the first two files are written, the
  // error still surfaces.
  failpoints::Registry::instance().arm("export.open=error@once:2");
  EXPECT_THROW(export_dataset(d, dir_, &executor), sim::HostIoError);
  failpoints::Registry::instance().arm("export.open=error");
  EXPECT_THROW(export_dataset(d, dir_, &executor), sim::HostIoError);
}

TEST_F(ExportFailpointTest, ParallelExportWriteFailureThrowsHostIoError) {
  runtime::Executor executor(4);
  const Dataset d = dataset_with_rows(2 * kExportRangeRows + 3);
  failpoints::Registry::instance().arm("export.write=error@once:4");
  EXPECT_THROW(export_dataset(d, dir_, &executor), sim::HostIoError);
  failpoints::Registry::instance().arm("export.write=error");
  EXPECT_THROW(export_dataset(d, dir_, &executor), sim::HostIoError);
}

TEST_F(ExportFailpointTest, StreamExportOpenFailureThrowsHostIoError) {
  runtime::Executor executor(4);
  const Dataset d = dataset_with_rows(2 * kExportRangeRows + 3);
  failpoints::Registry::instance().arm("export.open=error@once:2");
  {
    DatasetGroupStream groups(d);
    EXPECT_THROW(export_stream(groups, dir_, &executor), sim::HostIoError);
  }
  failpoints::Registry::instance().arm("export.open=error");
  {
    DatasetGroupStream groups(d);
    EXPECT_THROW(export_stream(groups, dir_), sim::HostIoError);
  }
}

TEST_F(ExportFailpointTest, StreamExportWriteFailureThrowsHostIoError) {
  runtime::Executor executor(4);
  // More rows than one 4-worker window: the failure surfaces after the
  // windows were written, at the final flush of the last file.
  const Dataset d = dataset_with_rows(2 * kExportRangeRows + 3);
  ASSERT_GT(record_count(d), window_records(4));
  failpoints::Registry::instance().arm("export.write=error@once:4");
  {
    DatasetGroupStream groups(d);
    EXPECT_THROW(export_stream(groups, dir_, &executor), sim::HostIoError);
  }
  failpoints::Registry::instance().arm("export.write=error");
  {
    DatasetGroupStream groups(d);
    EXPECT_THROW(export_stream(groups, dir_), sim::HostIoError);
  }
}

TEST(ExportTest, DirectoryRoundTripFromPipeline) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 25;
  const engine::RunResult run = engine::run_simulation(scenario);
  const Dataset& original = run.dataset;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_export_test";
  std::filesystem::remove_all(dir);
  export_dataset(original, dir);
  const Dataset loaded = import_dataset(dir);
  std::filesystem::remove_all(dir);

  ASSERT_EQ(loaded.player_sessions.size(), original.player_sessions.size());
  ASSERT_EQ(loaded.cdn_sessions.size(), original.cdn_sessions.size());
  ASSERT_EQ(loaded.player_chunks.size(), original.player_chunks.size());
  ASSERT_EQ(loaded.cdn_chunks.size(), original.cdn_chunks.size());
  ASSERT_EQ(loaded.tcp_snapshots.size(), original.tcp_snapshots.size());

  for (std::size_t i = 0; i < original.player_chunks.size(); ++i) {
    EXPECT_EQ(loaded.player_chunks[i].session_id,
              original.player_chunks[i].session_id);
    EXPECT_EQ(loaded.player_chunks[i].chunk_id,
              original.player_chunks[i].chunk_id);
    EXPECT_EQ(loaded.player_chunks[i].bitrate_kbps,
              original.player_chunks[i].bitrate_kbps);
    // Doubles survive to printed precision; the join only needs ids.
    EXPECT_NEAR(loaded.player_chunks[i].dfb_ms, original.player_chunks[i].dfb_ms,
                std::abs(original.player_chunks[i].dfb_ms) * 1e-4 + 1e-3);
  }

  // The joined view built from the reloaded dataset matches structurally.
  const JoinedDataset joined_original = JoinedDataset::build(original);
  const JoinedDataset joined_loaded = JoinedDataset::build(loaded);
  EXPECT_EQ(joined_loaded.sessions().size(), joined_original.sessions().size());
  EXPECT_EQ(joined_loaded.chunk_count(), joined_original.chunk_count());
}

}  // namespace
}  // namespace vstream::telemetry
