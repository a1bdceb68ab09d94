// analyze_spill over hand-written spill files whose sessions are out of id
// order: the per-range analysis matches the in-memory oracle.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "telemetry/record_group.h"

namespace vstream::core {
namespace {

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

/// Hand-written spill files of one 150-session run: three ranges of
/// analyze_spill.
class AnalyzeSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 150;
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

  /// Write the run's session groups, each passed through `edit` with its
  /// index, to one file: the even-indexed groups first, then the odd
  /// ones, so the file is not in id order.
  template <typename Edit>
  void write_file(Edit edit) {
    std::vector<telemetry::SessionRecordGroup> groups;
    telemetry::DatasetGroupStream stream(run_.dataset);
    while (auto group = stream.next()) {
      edit(groups.size(), *group);
      groups.push_back(std::move(*group));
    }
    telemetry::SpillWriter writer(dir_ / "run.vspill");
    for (const std::size_t parity : {0, 1}) {
      for (std::size_t i = parity; i < groups.size(); i += 2) {
        writer.write(groups[i]);
      }
    }
    writer.close();
  }

  telemetry::SpillSet spill() const {
    telemetry::SpillSet set;
    set.add_file(dir_ / "run.vspill");
    return set;
  }

  engine::RunResult run_;
  double tau_ = 0.0;
  std::filesystem::path dir_;
};

TEST_F(AnalyzeSpillTest, SessionsSpreadOverFilesMatchDatasetOracle) {
  // Group 5 loses its CDN session record, so the drop counts are not all
  // zero.
  write_file([](std::size_t index, telemetry::SessionRecordGroup& group) {
    if (index == 5) group.cdn_sessions.clear();
  });
  const StreamingAnalysis oracle = analyze_dataset(spill().load(), tau_);
  EXPECT_EQ(oracle.dropped_incomplete, 1u);
  EXPECT_EQ(oracle.sessions_joined + oracle.dropped_as_proxy, 149u);

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
  write_file([](std::size_t index, telemetry::SessionRecordGroup& group) {
    if (index % 3 == 0 && !group.player_sessions.empty() &&
        !group.cdn_sessions.empty()) {
      telemetry::PlayerSessionRecord again = group.player_sessions.front();
      again.client_ip ^= 0xFF;
      group.player_sessions.push_back(again);
      telemetry::CdnSessionRecord duplicate = group.cdn_sessions.front();
      if (index % 6 == 0) duplicate.observed_user_agent += " via proxy";
      group.cdn_sessions.push_back(duplicate);
    }
  });
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

}  // namespace
}  // namespace vstream::core
