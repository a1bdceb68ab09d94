// analyze_spill over hand-written spill files: sessions spread over two
// files match the in-memory oracle, and a session whose records span two
// files (which the engine never writes) is refused.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "telemetry/record_group.h"

namespace vstream::core {
namespace {

/// The first `n` records of `from`, or the rest after them.
template <typename Record>
std::vector<Record> head(const std::vector<Record>& from, std::size_t n) {
  return {from.begin(), from.begin() + static_cast<std::ptrdiff_t>(n)};
}
template <typename Record>
std::vector<Record> tail(const std::vector<Record>& from, std::size_t n) {
  return {from.begin() + static_cast<std::ptrdiff_t>(n), from.end()};
}

void expect_same(const StreamingAnalysis& got, const StreamingAnalysis& want) {
  EXPECT_EQ(got.sessions_joined, want.sessions_joined);
  EXPECT_EQ(got.dropped_as_proxy, want.dropped_as_proxy);
  EXPECT_EQ(got.dropped_incomplete, want.dropped_incomplete);
  EXPECT_EQ(got.qoe.sessions, want.qoe.sessions);
  EXPECT_EQ(got.qoe.startup_ms.mean, want.qoe.startup_ms.mean);
  EXPECT_EQ(got.qoe.startup_ms.median, want.qoe.startup_ms.median);
  EXPECT_EQ(got.qoe.rebuffer_rate_pct.p95, want.qoe.rebuffer_rate_pct.p95);
  EXPECT_EQ(got.qoe.avg_bitrate_kbps.mean, want.qoe.avg_bitrate_kbps.mean);
  EXPECT_EQ(got.qoe.share_with_rebuffering, want.qoe.share_with_rebuffering);
  EXPECT_EQ(got.perf.chunks, want.perf.chunks);
  EXPECT_EQ(got.perf.scored_chunks, want.perf.scored_chunks);
  EXPECT_EQ(got.perf.bad_chunks, want.perf.bad_chunks);
  EXPECT_EQ(got.perf.mean_score, want.perf.mean_score);
  EXPECT_EQ(got.perf.min_score, want.perf.min_score);
  EXPECT_EQ(got.recovery.sessions, want.recovery.sessions);
  EXPECT_EQ(got.recovery.completed_sessions, want.recovery.completed_sessions);
  EXPECT_EQ(got.recovery.retries, want.recovery.retries);
  EXPECT_EQ(got.recovery.timeouts, want.recovery.timeouts);
  EXPECT_EQ(got.recovery.mean_recovery_ms, want.recovery.mean_recovery_ms);
  EXPECT_EQ(got.recovery.mean_dfb_clean_ms, want.recovery.mean_dfb_clean_ms);
  EXPECT_EQ(got.proxies.proxy_sessions, want.proxies.proxy_sessions);
  EXPECT_EQ(got.session_qoe, want.session_qoe);
}

/// Hand-written two-file spill sets of one 40-session run.
class AnalyzeSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 40;
    run_ = engine::run_simulation(scenario);
    tau_ = run_.catalog->chunk_duration_s();
    // One directory per test: ctest runs the tests as parallel processes.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("vstream_analyze_spill_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Session groups alternate between two files, and group 5 loses its
  /// CDN session record, so the drop counts are not all zero.  When
  /// `split_session` is set, that session is cut in half instead: its
  /// player side and first chunks in file 0, its CDN side and the
  /// remaining chunks in file 1.  Returns whether a session was split.
  bool write_files(std::optional<std::uint64_t> split_session) {
    telemetry::SpillWriter w0(dir_ / "shard-0.vspill");
    telemetry::SpillWriter w1(dir_ / "shard-1.vspill");
    telemetry::DatasetGroupStream stream(run_.dataset);
    std::size_t index = 0;
    bool split = false;
    while (auto group = stream.next()) {
      if (split_session == group->session_id) {
        split = true;
        const std::size_t pc = group->player_chunks.size() / 2;
        const std::size_t cc = group->cdn_chunks.size() / 2;
        const std::size_t ts = group->tcp_snapshots.size() / 2;
        telemetry::SessionRecordGroup first;
        first.session_id = group->session_id;
        first.player_sessions = group->player_sessions;
        first.player_chunks = head(group->player_chunks, pc);
        first.cdn_chunks = head(group->cdn_chunks, cc);
        first.tcp_snapshots = head(group->tcp_snapshots, ts);
        telemetry::SessionRecordGroup second;
        second.session_id = group->session_id;
        second.cdn_sessions = group->cdn_sessions;
        second.player_chunks = tail(group->player_chunks, pc);
        second.cdn_chunks = tail(group->cdn_chunks, cc);
        second.tcp_snapshots = tail(group->tcp_snapshots, ts);
        w0.write(first);
        w1.write(second);
      } else {
        if (index == 5) group->cdn_sessions.clear();
        (index % 2 == 0 ? w0 : w1).write(*group);
      }
      ++index;
    }
    w0.close();
    w1.close();
    return split;
  }

  telemetry::SpillSet spill() const {
    telemetry::SpillSet set;
    set.add_file(dir_ / "shard-0.vspill");
    set.add_file(dir_ / "shard-1.vspill");
    return set;
  }

  engine::RunResult run_;
  double tau_ = 0.0;
  std::filesystem::path dir_;
};

TEST_F(AnalyzeSpillTest, SessionsSpreadOverFilesMatchDatasetOracle) {
  write_files(std::nullopt);
  const StreamingAnalysis oracle = analyze_dataset(spill().load(), tau_);
  EXPECT_EQ(oracle.dropped_incomplete, 1u);
  EXPECT_EQ(oracle.sessions_joined + oracle.dropped_as_proxy, 39u);

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const StreamingAnalysis streamed =
        analyze_spill(spill(), tau_, {}, threads);
    EXPECT_FALSE(streamed.spill.corrupted());
    expect_same(streamed, oracle);
  }
}

TEST_F(AnalyzeSpillTest, RepeatedBeaconAndDuplicateCdnRecordsMatchOracle) {
  // Every third session repeats its beacon with another IP (the first
  // beacon wins) and carries a second CDN session record; every sixth
  // session's duplicate also disagrees with its beacon, so rule (i) fires
  // on it alone.
  {
    telemetry::SpillWriter w0(dir_ / "shard-0.vspill");
    telemetry::SpillWriter w1(dir_ / "shard-1.vspill");
    telemetry::DatasetGroupStream stream(run_.dataset);
    std::size_t index = 0;
    while (auto group = stream.next()) {
      if (index % 3 == 0 && !group->player_sessions.empty() &&
          !group->cdn_sessions.empty()) {
        telemetry::PlayerSessionRecord again = group->player_sessions.front();
        again.client_ip ^= 0xFF;
        group->player_sessions.push_back(again);
        telemetry::CdnSessionRecord duplicate = group->cdn_sessions.front();
        if (index % 6 == 0) duplicate.observed_user_agent += " via proxy";
        group->cdn_sessions.push_back(duplicate);
      }
      (index % 2 == 0 ? w0 : w1).write(*group);
      ++index;
    }
    w0.close();
    w1.close();
  }
  const StreamingAnalysis oracle = analyze_dataset(spill().load(), tau_);
  EXPECT_GE(oracle.proxies.mismatch_detections, 7u);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const StreamingAnalysis streamed =
        analyze_spill(spill(), tau_, {}, threads);
    expect_same(streamed, oracle);
    EXPECT_EQ(streamed.proxies.mismatch_detections,
              oracle.proxies.mismatch_detections);
    EXPECT_EQ(streamed.proxies.volume_detections,
              oracle.proxies.volume_detections);
  }
}

TEST_F(AnalyzeSpillTest, SessionSplitAcrossFilesThrowsNamingIt) {
  ASSERT_TRUE(write_files(2));
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    try {
      analyze_spill(spill(), tau_, {}, threads);
      ADD_FAILURE() << "a session split across files must throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("session 2 "),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace vstream::core
