// End-to-end integration: run a full scenario through the engine and
// check structural invariants that span modules (Eq. 1 composition, cache
// accounting vs telemetry, QoE bookkeeping).
#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/detectors.h"
#include "engine/engine.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

namespace vstream {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::Scenario s = workload::test_scenario();
    s.session_count = 500;
    analyzed_ = new engine::AnalyzedRun(engine::run_and_analyze(s));
    run_ = &analyzed_->run;
    joined_ = &analyzed_->joined;
  }
  static void TearDownTestSuite() {
    delete analyzed_;
    analyzed_ = nullptr;
    run_ = nullptr;
    joined_ = nullptr;
  }

  static engine::AnalyzedRun* analyzed_;
  static const engine::RunResult* run_;
  static const telemetry::JoinedDataset* joined_;
};

engine::AnalyzedRun* EndToEndTest::analyzed_ = nullptr;
const engine::RunResult* EndToEndTest::run_ = nullptr;
const telemetry::JoinedDataset* EndToEndTest::joined_ = nullptr;

TEST_F(EndToEndTest, SessionsSurviveJoin) {
  EXPECT_GT(joined_->sessions().size(), 400u);
  EXPECT_EQ(joined_->sessions().size() + joined_->dropped_as_proxy(),
            run_->dataset.player_sessions.size());
}

TEST_F(EndToEndTest, Equation1Composition) {
  // D_FB = D_CDN + D_BE + D_DS + rtt0 (Eq. 1): the player-side D_FB must
  // always exceed the server-side share, and the residual (network + DS)
  // must be positive and sane.
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      const double residual =
          c.player->dfb_ms - c.cdn->dcdn_ms() - c.cdn->dbe_ms;
      EXPECT_GT(residual, 0.0) << "rtt0 + D_DS must be positive";
      EXPECT_LT(residual, 60'000.0);
    }
  }
}

TEST_F(EndToEndTest, ServerLatencyComponentsNonNegative) {
  for (const auto& c : run_->dataset.cdn_chunks) {
    EXPECT_GE(c.dwait_ms, 0.0);
    EXPECT_GE(c.dopen_ms, 0.0);
    EXPECT_GE(c.dread_ms, 0.0);
    EXPECT_GE(c.dbe_ms, 0.0);
    if (c.cache_hit()) {
      EXPECT_DOUBLE_EQ(c.dbe_ms, 0.0);
    } else {
      EXPECT_GT(c.dbe_ms, 0.0);
    }
  }
}

TEST_F(EndToEndTest, FleetCountersMatchTelemetry) {
  // Conservation: every delivered chunk is one served request in the
  // per-server counters, and every miss chunk one counted miss.
  std::size_t telemetry_misses = 0;
  for (const auto& c : run_->dataset.cdn_chunks) {
    if (!c.cache_hit()) ++telemetry_misses;
  }
  std::uint64_t server_misses = 0, server_requests = 0;
  for (const cdn::ServerStats& stats : run_->server_stats) {
    server_misses += stats.misses;
    server_requests += stats.requests_served;
  }
  EXPECT_EQ(server_misses, telemetry_misses);
  EXPECT_EQ(server_requests, run_->dataset.cdn_chunks.size());
}

TEST_F(EndToEndTest, TcpSnapshotsBelongToSessions) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    EXPECT_FALSE(s.snapshots.empty());
    double prev = -1.0;
    for (const auto* snap : s.snapshots) {
      EXPECT_EQ(snap->session_id, s.session_id);
      EXPECT_GE(snap->at_ms, prev);
      prev = snap->at_ms;
      EXPECT_GT(snap->info.srtt_ms, 0.0);
      EXPECT_GT(snap->info.cwnd_segments, 0u);
    }
  }
}

TEST_F(EndToEndTest, SessionNetMetricsValidEverywhere) {
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    const analysis::SessionNetMetrics m = analysis::session_net_metrics(s);
    ASSERT_TRUE(m.valid);
    EXPECT_GT(m.srtt_min_ms, 0.0);
    // The baseline is an estimate built from per-chunk minima; on short
    // noisy sessions it can exceed the sample mean, but never wildly.
    EXPECT_LE(m.srtt_min_ms, 3.0 * m.srtt_mean_ms + 50.0);
    EXPECT_GE(m.srtt_cv, 0.0);
  }
}

TEST_F(EndToEndTest, RebufferingImpliesSlowChunks) {
  // Sessions that stalled must contain at least one chunk whose download
  // was slower than real time (perfscore < 1).
  const double tau = run_->catalog->chunk_duration_s();
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    if (s.total_rebuffer_ms() <= 0.0) continue;
    bool any_slow = false;
    for (const telemetry::JoinedChunk& c : s.chunks) {
      if (analysis::perf_score(tau, c.player->dfb_ms, c.player->dlb_ms) < 1.0) {
        any_slow = true;
        break;
      }
    }
    EXPECT_TRUE(any_slow) << "session " << s.session_id;
  }
}

TEST_F(EndToEndTest, RenderingBookkeepingConsistent) {
  for (const auto& c : run_->dataset.player_chunks) {
    EXPECT_LE(c.dropped_frames, c.total_frames);
    EXPECT_GE(c.avg_fps, 0.0);
    EXPECT_LE(c.avg_fps, 30.0 + 1e-9);
  }
}

TEST_F(EndToEndTest, DsDetectorFindsTruthWithoutWildFalsePositives) {
  // Score the Eq. 4 detector against simulator ground truth — the
  // validation the paper could not run.
  const auto& truth = run_->ground_truth.ds_anomalies;
  std::size_t true_positives = 0, false_positives = 0, flagged = 0;
  for (const telemetry::JoinedSession& s : joined_->sessions()) {
    const analysis::DsOutlierResult r = analysis::detect_ds_outliers(s);
    flagged += r.flagged_count;
    const auto it = truth.find(s.session_id);
    for (std::size_t i = 0; i < r.flagged.size(); ++i) {
      if (!r.flagged[i]) continue;
      const std::uint32_t chunk_id = s.chunks[i].player->chunk_id;
      const bool is_true =
          it != truth.end() &&
          std::find(it->second.begin(), it->second.end(), chunk_id) !=
              it->second.end();
      if (is_true) {
        ++true_positives;
      } else {
        ++false_positives;
      }
    }
  }
  if (flagged > 0) {
    // Precision should dominate: the Eq. 4 screen is conservative.
    EXPECT_GT(true_positives, false_positives);
  }
}

}  // namespace
}  // namespace vstream
