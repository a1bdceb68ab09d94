// analyze_spill over hand-written spill files whose sessions do not all
// sit in one file — the cross-file pass the engine never exercises.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <filesystem>
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
}

TEST(AnalyzeSpillTest, SessionSplitAcrossFilesMatchesDatasetOracle) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 40;
  const engine::RunResult run = engine::run_simulation(scenario);
  const double tau = run.catalog->chunk_duration_s();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("vstream_analyze_spill_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path file0 = dir / "shard-0.vspill";
  const std::filesystem::path file1 = dir / "shard-1.vspill";

  // Sessions alternate between the two files, except that session group
  // 2 is cut in half — its player side and first chunks in file 0, its
  // CDN side and the remaining chunks in file 1 — and group 5 loses its
  // CDN session record, so the drop counts are not all zero.
  {
    telemetry::SpillWriter w0(file0);
    telemetry::SpillWriter w1(file1);
    telemetry::DatasetGroupStream stream(run.dataset);
    std::size_t index = 0;
    while (auto group = stream.next()) {
      if (index == 2) {
        const std::size_t pc = group->player_chunks.size() / 2;
        const std::size_t cc = group->cdn_chunks.size() / 2;
        const std::size_t ts = group->tcp_snapshots.size() / 2;
        ASSERT_GT(pc, 0u);
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
  }
  telemetry::SpillSet spill;
  spill.add_file(file0);
  spill.add_file(file1);

  const StreamingAnalysis oracle = analyze_dataset(spill.load(), tau);
  EXPECT_EQ(oracle.dropped_incomplete, 1u);
  EXPECT_EQ(oracle.sessions_joined + oracle.dropped_as_proxy, 39u)
      << "the split session is joined whole";

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const StreamingAnalysis streamed = analyze_spill(spill, tau, {}, threads);
    EXPECT_FALSE(streamed.spill.corrupted());
    expect_same(streamed, oracle);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vstream::core
