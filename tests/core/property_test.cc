// Cross-seed property sweep: invariants that must hold for ANY simulated
// run, regardless of the random draw.
#include <gtest/gtest.h>

#include "analysis/detectors.h"
#include "engine/engine.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

namespace vstream::engine {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 120;
    scenario.seed = GetParam();
    run_ = std::make_unique<RunResult>(run_simulation(scenario));
    joined_ = std::make_unique<telemetry::JoinedDataset>(
        telemetry::JoinedDataset::build(run_->dataset));
  }

  std::unique_ptr<RunResult> run_;
  std::unique_ptr<telemetry::JoinedDataset> joined_;
};

TEST_P(PipelinePropertyTest, TimingDecompositionAlwaysConsistent) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      ASSERT_NE(c.player, nullptr);
      ASSERT_NE(c.cdn, nullptr);
      // Eq. 1: D_FB covers the server's share with a positive remainder
      // (rtt0 + D_DS).
      EXPECT_GT(c.player->dfb_ms, c.cdn->server_total_ms());
      EXPECT_GE(c.player->dlb_ms, 0.0);
      // Server components are individually non-negative and consistent.
      EXPECT_GE(c.cdn->dwait_ms, 0.0);
      EXPECT_GE(c.cdn->dopen_ms, 0.0);
      EXPECT_GE(c.cdn->dread_ms, c.cdn->dbe_ms);
    }
  }
}

TEST_P(PipelinePropertyTest, TcpCountersMonotonePerSession) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    std::uint64_t prev_retrans = 0, prev_segments = 0;
    for (const telemetry::TcpSnapshotRecord* snap : s.snapshots) {
      EXPECT_GE(snap->info.total_retrans, prev_retrans);
      EXPECT_GE(snap->info.segments_out, prev_segments);
      prev_retrans = snap->info.total_retrans;
      prev_segments = snap->info.segments_out;
      EXPECT_GT(snap->info.srtt_ms, 0.0);
      EXPECT_GE(snap->info.rttvar_ms, 0.0);
      EXPECT_GE(snap->info.cwnd_segments, 1u);
    }
  }
}

TEST_P(PipelinePropertyTest, RetransmissionsNeverExceedSegments) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      EXPECT_LE(c.retransmissions, c.segments + 1)
          << "session " << s.session_id << " chunk " << c.player->chunk_id;
      EXPECT_LE(c.retx_rate(), 1.0 + 1e-9);
    }
  }
}

TEST_P(PipelinePropertyTest, RequestTimelineMonotone) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    double prev_end = -1.0;
    for (const telemetry::JoinedChunk& c : s.chunks) {
      EXPECT_GE(c.player->request_sent_ms, prev_end - 1e-6)
          << "chunks overlap in session " << s.session_id;
      prev_end = c.player->request_sent_ms + c.player->dfb_ms +
                 c.player->dlb_ms;
    }
  }
}

TEST_P(PipelinePropertyTest, RebufferingNeverExceedsWallTime) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      EXPECT_LE(c.player->rebuffer_ms,
                c.player->dfb_ms + c.player->dlb_ms + 1e-6);
    }
    EXPECT_LE(s.rebuffer_rate_percent(), 100.0 + 1e-9);
  }
}

TEST_P(PipelinePropertyTest, CacheAccountingMatchesAcrossLayers) {
  std::size_t telemetry_misses = 0;
  for (const auto& c : run_->dataset.cdn_chunks) {
    if (!c.cache_hit()) ++telemetry_misses;
  }
  std::uint64_t server_misses = 0;
  for (const cdn::ServerStats& stats : run_->server_stats) {
    server_misses += stats.misses;
  }
  EXPECT_EQ(server_misses, telemetry_misses);
}

TEST_P(PipelinePropertyTest, DetectorNeverCrashesAndStaysBounded) {
  std::size_t flagged = 0, chunks = 0;
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    const analysis::DsOutlierResult r = analysis::detect_ds_outliers(s);
    flagged += r.flagged_count;
    chunks += s.chunks.size();
  }
  // The Eq. 4 screen flags a small minority at any seed.
  EXPECT_LT(static_cast<double>(flagged), 0.05 * static_cast<double>(chunks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(11u, 222u, 3333u, 44444u, 555555u));

}  // namespace
}  // namespace vstream::engine
