#include "analysis/accumulators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/detectors.h"
#include "analysis/qoe.h"
#include "net/prefix.h"
#include "telemetry/join.h"
#include "telemetry/record_sink.h"

namespace vstream::analysis {
namespace {

constexpr double kTau = 6.0;  // chunk duration (s) for Eq. 2

/// Six sessions over three /24 prefixes with enough variety to make every
/// accumulator path non-trivial: varied SRTT, rebuffering, retries,
/// failovers, stale/shed/hedged chunks and one unscoreable chunk.
telemetry::Dataset rich_dataset() {
  telemetry::Dataset d;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    telemetry::PlayerSessionRecord ps;
    ps.session_id = s;
    // Two sessions per /24.
    ps.client_ip = net::make_ip(10, 0, static_cast<std::uint8_t>((s + 1) / 2),
                                static_cast<std::uint8_t>(s));
    ps.user_agent = "Chrome/Windows";
    ps.start_time_ms = 500.0 * static_cast<double>(s);
    ps.startup_ms = 400.0 + 37.5 * static_cast<double>(s);
    ps.chunks_requested = 3;
    ps.completed = s != 4;  // one abandoned session
    d.player_sessions.push_back(ps);

    telemetry::CdnSessionRecord cs;
    cs.session_id = s;
    cs.observed_ip = ps.client_ip;
    cs.pop = static_cast<std::uint32_t>(s % 2);
    cs.org = s <= 2 ? "AlphaNet" : "BetaNet";
    cs.access = s % 3 == 0 ? net::AccessType::kEnterprise
                           : net::AccessType::kResidential;
    cs.country = s <= 4 ? "US" : "DE";
    cs.client_distance_km = 100.0 * static_cast<double>(s) + 0.25;
    d.cdn_sessions.push_back(cs);

    for (std::uint32_t c = 0; c < 3; ++c) {
      telemetry::PlayerChunkRecord pc;
      pc.session_id = s;
      pc.chunk_id = c;
      pc.request_sent_ms = c * 2'000.0;
      pc.dfb_ms = 80.0 + 10.0 * static_cast<double>(s) + c;
      pc.dlb_ms = 900.0 + static_cast<double>(c);
      pc.bitrate_kbps = 1'500 + 250 * c;
      pc.rebuffer_ms = (s % 2 == 1 && c == 1) ? 400.0 : 0.0;
      pc.rebuffer_count = (s % 2 == 1 && c == 1) ? 1 : 0;
      pc.avg_fps = 60.0;
      pc.dropped_frames = c;
      pc.total_frames = 360;
      if (s == 2 && c == 1) {
        pc.retries = 1;
        pc.recovery_ms = 300.0;
      }
      if (s == 3 && c == 2) {
        pc.failed_over = true;
        pc.recovery_ms = 450.0;
        pc.timeouts = 1;
      }
      if (s == 6 && c == 2) {
        // Unscoreable chunk for Eq. 2 (no delivery measured).
        pc.dfb_ms = 0.0;
        pc.dlb_ms = 0.0;
      }
      if (s == 5 && c == 1) {
        // Slower than real time: D_FB + D_LB > tau, so Eq. 2 flags it.
        pc.dfb_ms = 6'500.0;
      }
      d.player_chunks.push_back(pc);

      telemetry::CdnChunkRecord cc;
      cc.session_id = s;
      cc.chunk_id = c;
      cc.dread_ms = 1.5;
      cc.cache_level = cdn::CacheLevel::kRam;
      cc.served_stale = s == 5 && c == 0;
      cc.shed = s == 1 && c == 0;
      cc.hedged = s == 4 && c == 1;
      cc.hedge_won = s == 4 && c == 1;
      cc.served_swr = s == 5 && c == 2;
      cc.budget_denied = s == 2 && c == 1;
      d.cdn_chunks.push_back(cc);

      telemetry::TcpSnapshotRecord snap;
      snap.session_id = s;
      snap.chunk_id = c;
      snap.at_ms = c * 2'000.0 + 500.0;
      snap.info.srtt_ms = 40.0 + 5.0 * static_cast<double>(s) + c;
      snap.info.total_retrans = 2 * (c + 1);
      snap.info.segments_out = 100 * (c + 1);
      d.tcp_snapshots.push_back(snap);
    }
  }
  return d;
}

void expect_stats_equal(const SummaryStats& a, const SummaryStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.p95, b.p95);
}

TEST(QoeAccumulatorTest, BitIdenticalToBatchAggregate) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);
  const QoeAggregate batch = aggregate_qoe(joined);

  QoeAccumulator acc;
  for (const telemetry::JoinedSession& s : joined.sessions()) acc.add(s);
  const QoeAggregate streamed = std::move(acc).finalize();

  EXPECT_EQ(streamed.sessions, batch.sessions);
  EXPECT_EQ(streamed.share_with_rebuffering, batch.share_with_rebuffering);
  expect_stats_equal(streamed.startup_ms, batch.startup_ms);
  expect_stats_equal(streamed.rebuffer_rate_pct, batch.rebuffer_rate_pct);
  expect_stats_equal(streamed.avg_bitrate_kbps, batch.avg_bitrate_kbps);
  expect_stats_equal(streamed.dropped_frame_pct, batch.dropped_frame_pct);
}

TEST(QoeAccumulatorTest, FeedOrderAndMergeDoNotChangeTheResult) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);
  const QoeAggregate batch = aggregate_qoe(joined);

  // Reverse feed order.
  QoeAccumulator reversed;
  for (auto it = joined.sessions().rbegin(); it != joined.sessions().rend();
       ++it) {
    reversed.add(*it);
  }
  const QoeAggregate from_reversed = std::move(reversed).finalize();
  expect_stats_equal(from_reversed.startup_ms, batch.startup_ms);

  // Split across two accumulators (odd/even sessions, like two shards)
  // and merge.
  QoeAccumulator left, right;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    (s.session_id % 2 == 0 ? left : right).add(s);
  }
  left.merge(std::move(right));
  const QoeAggregate merged = std::move(left).finalize();
  EXPECT_EQ(merged.sessions, batch.sessions);
  expect_stats_equal(merged.startup_ms, batch.startup_ms);
  expect_stats_equal(merged.rebuffer_rate_pct, batch.rebuffer_rate_pct);
}

TEST(PrefixRollupAccumulatorTest, BitIdenticalToBatchRollup) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);
  const std::vector<PrefixRollup> batch = rollup_prefixes(joined);
  ASSERT_EQ(batch.size(), 3u);

  PrefixRollupAccumulator acc;
  // Reverse order on purpose: finalize must re-sort before folding.
  for (auto it = joined.sessions().rbegin(); it != joined.sessions().rend();
       ++it) {
    acc.add(*it);
  }
  const std::vector<PrefixRollup> streamed = std::move(acc).finalize();

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].prefix, batch[i].prefix);
    EXPECT_EQ(streamed[i].session_count, batch[i].session_count);
    EXPECT_EQ(streamed[i].srtt_min_ms, batch[i].srtt_min_ms);
    EXPECT_EQ(streamed[i].mean_srtt_ms, batch[i].mean_srtt_ms);
    EXPECT_EQ(streamed[i].distance_km, batch[i].distance_km);
    EXPECT_EQ(streamed[i].country, batch[i].country);
    EXPECT_EQ(streamed[i].org, batch[i].org);
    EXPECT_EQ(streamed[i].access, batch[i].access);
  }
}

TEST(PerfScoreAccumulatorTest, MatchesFlatChunkOrderFold) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);

  PerfScoreAccumulator acc(kTau);
  for (const telemetry::JoinedSession& s : joined.sessions()) acc.add(s);
  const PerfScoreSummary streamed = std::move(acc).finalize();

  // Reference: the straightforward fold over all joined chunks in dataset
  // order, which the accumulator's per-session grouping must reproduce.
  std::size_t chunks = 0, scored = 0, bad = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    for (const telemetry::JoinedChunk& chunk : s.chunks) {
      if (chunk.player == nullptr) continue;
      ++chunks;
      if (chunk.player->dfb_ms + chunk.player->dlb_ms <= 0.0) continue;
      const double score =
          perf_score(kTau, chunk.player->dfb_ms, chunk.player->dlb_ms);
      ++scored;
      if (score < 1.0) ++bad;
      sum += score;
      min = std::min(min, score);
    }
  }
  EXPECT_EQ(streamed.chunks, chunks);
  EXPECT_EQ(streamed.scored_chunks, scored);
  EXPECT_EQ(streamed.bad_chunks, bad);
  ASSERT_GT(scored, 0u);
  // One chunk (session 6, chunk 2) is unscoreable.
  EXPECT_EQ(chunks, scored + 1);
  EXPECT_DOUBLE_EQ(streamed.mean_score, sum / static_cast<double>(scored));
  EXPECT_DOUBLE_EQ(streamed.min_score, min);
  EXPECT_GT(streamed.bad_share(), 0.0);
}

TEST(PerfScoreAccumulatorTest, MergePreservesTheFold) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);

  PerfScoreAccumulator whole(kTau);
  PerfScoreAccumulator left(kTau), right(kTau);
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    whole.add(s);
    (s.session_id % 2 == 0 ? left : right).add(s);
  }
  left.merge(std::move(right));
  const PerfScoreSummary a = std::move(whole).finalize();
  const PerfScoreSummary b = std::move(left).finalize();
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.scored_chunks, b.scored_chunks);
  EXPECT_EQ(a.bad_chunks, b.bad_chunks);
  EXPECT_EQ(a.mean_score, b.mean_score);
  EXPECT_EQ(a.min_score, b.min_score);
}

TEST(RecoveryImpactAccumulatorTest, MatchesBatchExactly) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);
  const RecoveryImpact batch = recovery_impact(joined);

  // Reverse feed order: finalize must re-sort before folding.
  RecoveryImpactAccumulator acc;
  for (auto it = joined.sessions().rbegin(); it != joined.sessions().rend();
       ++it) {
    acc.add(*it);
  }
  const RecoveryImpact streamed = std::move(acc).finalize();

  EXPECT_EQ(streamed.sessions, batch.sessions);
  EXPECT_EQ(streamed.completed_sessions, batch.completed_sessions);
  EXPECT_EQ(streamed.failover_sessions, batch.failover_sessions);
  EXPECT_EQ(streamed.affected_sessions, batch.affected_sessions);
  EXPECT_EQ(streamed.retries, batch.retries);
  EXPECT_EQ(streamed.timeouts, batch.timeouts);
  EXPECT_EQ(streamed.stale_chunks, batch.stale_chunks);
  EXPECT_EQ(streamed.shed_chunks, batch.shed_chunks);
  EXPECT_EQ(streamed.hedged_chunks, batch.hedged_chunks);
  EXPECT_EQ(streamed.hedge_wins, batch.hedge_wins);
  EXPECT_EQ(streamed.swr_chunks, batch.swr_chunks);
  EXPECT_EQ(streamed.budget_denied_chunks, batch.budget_denied_chunks);

  // The sanity of the fixture: recovery actually happened.
  EXPECT_GT(streamed.affected_sessions, 0u);
  EXPECT_GT(streamed.stale_chunks, 0u);

  // One fold, one order: the FP means agree to the bit.
  EXPECT_EQ(streamed.mean_recovery_ms, batch.mean_recovery_ms);
  EXPECT_EQ(streamed.mean_dfb_failover_ms, batch.mean_dfb_failover_ms);
  EXPECT_EQ(streamed.mean_dfb_clean_ms, batch.mean_dfb_clean_ms);
  EXPECT_EQ(streamed.rebuffer_rate_percent, batch.rebuffer_rate_percent);
}

TEST(RecoveryImpactAccumulatorTest, MergeMatchesSingleAccumulator) {
  const telemetry::Dataset d = rich_dataset();
  const telemetry::JoinedDataset joined = telemetry::JoinedDataset::build(d);

  RecoveryImpactAccumulator whole;
  RecoveryImpactAccumulator left, right;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    whole.add(s);
    (s.session_id % 2 == 0 ? left : right).add(s);
  }
  left.merge(std::move(right));
  const RecoveryImpact a = std::move(whole).finalize();
  const RecoveryImpact b = std::move(left).finalize();
  EXPECT_EQ(a.affected_sessions, b.affected_sessions);
  EXPECT_EQ(a.retries, b.retries);
  // Both folds sort entries by session id first, so even the FP means are
  // identical between the merged and the single accumulator.
  EXPECT_EQ(a.mean_recovery_ms, b.mean_recovery_ms);
  EXPECT_EQ(a.rebuffer_rate_percent, b.rebuffer_rate_percent);
}

TEST(AccumulatorsTest, DroppingAtFinalizeEqualsFilteringTheJoin) {
  // Sessions 2 and 5 are proxies: every accumulator fed the unfiltered
  // join and told the proxy set at finalize must equal the same
  // accumulator fed the proxy-filtered join.
  const telemetry::Dataset d = rich_dataset();
  telemetry::ProxyFilterResult proxies;
  proxies.proxy_sessions = {2, 5};
  const telemetry::JoinedDataset all = telemetry::JoinedDataset::build(d);
  const telemetry::JoinedDataset kept =
      telemetry::JoinedDataset::build(d, &proxies);
  ASSERT_EQ(kept.sessions().size(), 4u);

  QoeAccumulator qoe_all, qoe_kept;
  PrefixRollupAccumulator prefix_all, prefix_kept;
  PerfScoreAccumulator perf_all(kTau), perf_kept(kTau);
  RecoveryImpactAccumulator recovery_all, recovery_kept;
  for (const telemetry::JoinedSession& s : all.sessions()) {
    qoe_all.add(s);
    prefix_all.add(s);
    perf_all.add(s);
    recovery_all.add(s);
  }
  for (const telemetry::JoinedSession& s : kept.sessions()) {
    qoe_kept.add(s);
    prefix_kept.add(s);
    perf_kept.add(s);
    recovery_kept.add(s);
  }

  std::vector<SessionQoeRow> rows;
  const QoeAggregate q = std::move(qoe_all).finalize(&proxies, &rows);
  const QoeAggregate q_want = std::move(qoe_kept).finalize();
  EXPECT_EQ(q.sessions, 4u);
  EXPECT_EQ(q.sessions, q_want.sessions);
  EXPECT_EQ(q.share_with_rebuffering, q_want.share_with_rebuffering);
  expect_stats_equal(q.startup_ms, q_want.startup_ms);
  expect_stats_equal(q.rebuffer_rate_pct, q_want.rebuffer_rate_pct);
  expect_stats_equal(q.avg_bitrate_kbps, q_want.avg_bitrate_kbps);
  expect_stats_equal(q.dropped_frame_pct, q_want.dropped_frame_pct);
  // The rows keep every session, the dropped ones included.
  EXPECT_EQ(rows, session_qoe_rows(all));

  const std::vector<PrefixRollup> p = std::move(prefix_all).finalize(&proxies);
  const std::vector<PrefixRollup> p_want = std::move(prefix_kept).finalize();
  ASSERT_EQ(p.size(), p_want.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i].prefix, p_want[i].prefix);
    EXPECT_EQ(p[i].session_count, p_want[i].session_count);
    EXPECT_EQ(p[i].mean_srtt_ms, p_want[i].mean_srtt_ms);
    EXPECT_EQ(p[i].distance_km, p_want[i].distance_km);
  }

  const PerfScoreSummary f = std::move(perf_all).finalize(&proxies);
  const PerfScoreSummary f_want = std::move(perf_kept).finalize();
  EXPECT_EQ(f.chunks, f_want.chunks);
  EXPECT_EQ(f.scored_chunks, f_want.scored_chunks);
  EXPECT_EQ(f.bad_chunks, f_want.bad_chunks);
  EXPECT_EQ(f.mean_score, f_want.mean_score);
  EXPECT_EQ(f.min_score, f_want.min_score);

  const RecoveryImpact r = std::move(recovery_all).finalize(&proxies);
  const RecoveryImpact r_want = std::move(recovery_kept).finalize();
  EXPECT_EQ(r.sessions, 4u);
  EXPECT_EQ(r.sessions, r_want.sessions);
  EXPECT_EQ(r.completed_sessions, r_want.completed_sessions);
  EXPECT_EQ(r.affected_sessions, r_want.affected_sessions);
  EXPECT_EQ(r.retries, r_want.retries);
  EXPECT_EQ(r.stale_chunks, r_want.stale_chunks);
  EXPECT_EQ(r.budget_denied_chunks, r_want.budget_denied_chunks);
  EXPECT_EQ(r.mean_recovery_ms, r_want.mean_recovery_ms);
  EXPECT_EQ(r.mean_dfb_clean_ms, r_want.mean_dfb_clean_ms);
  EXPECT_EQ(r.rebuffer_rate_percent, r_want.rebuffer_rate_percent);
}

}  // namespace
}  // namespace vstream::analysis
