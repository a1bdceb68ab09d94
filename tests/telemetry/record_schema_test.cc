#include "telemetry/record_schema.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/spill_format.h"

namespace vstream::telemetry {
namespace {

/// One session with every field of every record type set to a value that
/// is distinct within its record and differs from the field's default.
/// Every double has at most six significant digits, so the CSV's %.6g
/// prints it exactly; u64 fields exceed 32 bits.  A field the schema
/// lost would come back at its default and fail the record comparison.
SessionRecordGroup every_field_set() {
  constexpr std::uint64_t kId = 5'000'000'001;
  SessionRecordGroup g;
  g.session_id = kId;

  PlayerSessionRecord ps;
  ps.session_id = kId;
  ps.client_ip = net::make_ip(10, 20, 30, 40);
  ps.user_agent = "Firefox/Linux";
  ps.video_duration_s = 301.5;
  ps.start_time_ms = 12345.2;
  ps.startup_ms = 812.25;
  ps.chunks_requested = 77;
  ps.completed = false;
  g.player_sessions.push_back(ps);

  CdnSessionRecord cs;
  cs.session_id = kId;
  cs.observed_ip = net::make_ip(198, 18, 7, 9);
  cs.observed_user_agent = "Chrome/Windows";
  cs.pop = 4;
  cs.server = 11;
  cs.org = "ExampleNet";
  cs.access = net::AccessType::kInternational;
  cs.city = "Springfield";
  cs.country = "CA";
  cs.client_distance_km = 1609.34;
  g.cdn_sessions.push_back(cs);

  PlayerChunkRecord pc;
  pc.session_id = kId;
  pc.chunk_id = 9;
  pc.request_sent_ms = 18000.5;
  pc.dfb_ms = 240.125;
  pc.dlb_ms = 1900.75;
  pc.bitrate_kbps = 2500;
  pc.rebuffer_ms = 35.5;
  pc.rebuffer_count = 2;
  pc.visible = false;
  pc.avg_fps = 29.97;
  pc.dropped_frames = 15;
  pc.total_frames = 180;
  pc.retries = 3;
  pc.timeouts = 1;
  pc.failed_over = true;
  pc.recovery_ms = 4250.5;
  g.player_chunks.push_back(pc);

  CdnChunkRecord cc;
  cc.session_id = kId;
  cc.chunk_id = 9;
  cc.dwait_ms = 0.25;
  cc.dopen_ms = 0.5;
  cc.dread_ms = 76.25;
  cc.dbe_ms = 64.5;
  cc.cache_level = cdn::CacheLevel::kDisk;
  cc.chunk_bytes = 6'000'000'000;
  cc.pop = 4;
  cc.server = 12;
  cc.served_stale = true;
  cc.shed = true;
  cc.hedged = true;
  cc.hedge_won = true;
  cc.breaker = cdn::BreakerState::kOpen;
  cc.budget_denied = true;
  cc.served_swr = true;
  g.cdn_chunks.push_back(cc);

  TcpSnapshotRecord ts;
  ts.session_id = kId;
  ts.chunk_id = 9;
  ts.at_ms = 18500.5;
  ts.info.srtt_ms = 48.5;
  ts.info.rttvar_ms = 6.25;
  ts.info.cwnd_segments = 64;
  ts.info.ssthresh_segments = 48;
  ts.info.mss_bytes = 1460;
  ts.info.total_retrans = 7'000'000'000;
  ts.info.segments_out = 8'000'000'000;
  ts.info.bytes_acked = 9'000'000'000;
  ts.info.in_slow_start = true;
  g.tcp_snapshots.push_back(ts);
  return g;
}

template <typename Rec>
std::string header_line() {
  std::ostringstream out;
  write_csv(out, std::vector<Rec>{});
  return out.str();
}

// The headers are the external format of the CSV export: pinned here as
// literals, not derived from the schema under test.
TEST(RecordSchemaTest, CsvHeadersArePinned) {
  EXPECT_EQ(header_line<PlayerSessionRecord>(),
            "session_id,client_ip,user_agent,video_duration_s,start_time_ms,"
            "startup_ms,chunks_requested,completed\n");
  EXPECT_EQ(header_line<CdnSessionRecord>(),
            "session_id,observed_ip,observed_user_agent,pop,server,org,access,"
            "city,country,client_distance_km\n");
  EXPECT_EQ(header_line<PlayerChunkRecord>(),
            "session_id,chunk_id,request_sent_ms,dfb_ms,dlb_ms,bitrate_kbps,"
            "rebuffer_ms,rebuffer_count,visible,avg_fps,dropped_frames,"
            "total_frames,retries,timeouts,failed_over,recovery_ms\n");
  EXPECT_EQ(header_line<CdnChunkRecord>(),
            "session_id,chunk_id,dwait_ms,dopen_ms,dread_ms,dbe_ms,"
            "cache_level,chunk_bytes,pop,server,served_stale,shed,hedged,"
            "hedge_won,breaker,budget_denied,served_swr\n");
  EXPECT_EQ(header_line<TcpSnapshotRecord>(),
            "session_id,chunk_id,at_ms,srtt_ms,rttvar_ms,cwnd_segments,"
            "ssthresh_segments,mss_bytes,total_retrans,segments_out,"
            "bytes_acked,in_slow_start\n");
}

TEST(RecordSchemaTest, EveryColumnRoundTripsThroughCsv) {
  const SessionRecordGroup g = every_field_set();
  const auto round_trip = [](const auto& records) {
    using Rec = record_t<decltype(records)>;
    std::stringstream buffer;
    write_csv(buffer, records);
    return read_csv<Rec>(buffer);
  };
  EXPECT_EQ(round_trip(g.player_sessions), g.player_sessions);
  EXPECT_EQ(round_trip(g.cdn_sessions), g.cdn_sessions);
  EXPECT_EQ(round_trip(g.player_chunks), g.player_chunks);
  EXPECT_EQ(round_trip(g.cdn_chunks), g.cdn_chunks);
  EXPECT_EQ(round_trip(g.tcp_snapshots), g.tcp_snapshots);
}

TEST(RecordSchemaTest, EveryColumnRoundTripsThroughSpill) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("vstream_record_schema_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       ".vspill");
  const SessionRecordGroup g = every_field_set();
  {
    SpillWriter writer(path);
    writer.write(g);
    writer.close();
  }
  SpillReader reader(path);
  const std::optional<SessionRecordGroup> read = reader.next();
  std::filesystem::remove(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->session_id, g.session_id);
  EXPECT_EQ(read->player_sessions, g.player_sessions);
  EXPECT_EQ(read->cdn_sessions, g.cdn_sessions);
  EXPECT_EQ(read->player_chunks, g.player_chunks);
  EXPECT_EQ(read->cdn_chunks, g.cdn_chunks);
  EXPECT_EQ(read->tcp_snapshots, g.tcp_snapshots);
}

}  // namespace
}  // namespace vstream::telemetry
