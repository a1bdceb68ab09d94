// Tests for the paper's take-away recommendations wired through the
// engine: bad-prefix ABR hints, throughput-outlier exclusion, universal
// head caching and prefetch-on-miss at fleet scale.
#include <gtest/gtest.h>

#include "analysis/qoe.h"
#include "client/abr.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "telemetry/join.h"

namespace vstream::engine {
namespace {

TEST(BadPrefixHintTest, RateBasedStartsAtFloorWhenHinted) {
  client::RateBasedAbr abr;
  client::AbrContext ctx;
  ctx.known_bad_prefix = true;
  EXPECT_EQ(abr.choose(ctx, client::default_bitrate_ladder()),
            client::default_bitrate_ladder()[0]);
  ctx.known_bad_prefix = false;
  EXPECT_EQ(abr.choose(ctx, client::default_bitrate_ladder()),
            client::default_bitrate_ladder()[1]);
}

TEST(BadPrefixHintTest, HintOnlyAffectsTheColdStart) {
  client::RateBasedAbr abr;
  client::AbrContext ctx;
  ctx.known_bad_prefix = true;
  ctx.smoothed_throughput_kbps = 10'000.0;
  // With throughput evidence the hint no longer constrains the choice.
  EXPECT_GT(abr.choose(ctx, client::default_bitrate_ladder()), 1'500u);
}

/// First-chunk bitrate of a scripted 5-chunk rate-based session, with or
/// without its own /24 prefix flagged as known-bad.
std::uint32_t first_bitrate(bool flag_prefix) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 1;
  scenario.abr = client::AbrKind::kRateBased;
  RunOptions options;
  if (flag_prefix) {
    const ReplayContext probe(scenario);
    options.bad_prefixes.insert(
        probe.admitted().front().spec.client.prefix->prefix);
  }
  const ReplayContext world(scenario, std::move(options));

  SessionOverrides overrides;
  overrides.chunk_count = 5;
  overrides.disable_ds_anomalies = true;
  const auto replayed = world.replay_session(
      world.admitted().front().spec.session_id, {}, &overrides);
  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  return joined.sessions().at(0).chunks.at(0).player->bitrate_kbps;
}

TEST(BadPrefixHintTest, PipelineAppliesHintToFlaggedPrefixSessions) {
  // Flag the session's prefix: it must start at the floor rung.
  EXPECT_EQ(first_bitrate(true), client::default_bitrate_ladder()[0]);
}

TEST(BadPrefixHintTest, UnflaggedSessionsUnaffected) {
  EXPECT_EQ(first_bitrate(false), client::default_bitrate_ladder()[1]);
}

TEST(OutlierFilterTest, FilterPreventsOvershootAfterBufferedChunk) {
  // Download stacks that frequently hold chunks corrupt the client-side
  // throughput signal; the §4.3-1 filter keeps the rate-based ABR honest.
  const auto run_overshoot_share = [](bool filter) {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 40;
    scenario.abr = client::AbrKind::kRateBased;
    scenario.abr_filters_throughput_outliers = filter;
    const ReplayContext world(scenario);

    client::DownloadStackProfile noisy;
    noisy.anomaly_probability = 0.15;
    SessionOverrides overrides;
    overrides.chunk_count = 15;
    overrides.ds_profile = noisy;
    overrides.bottleneck_kbps = 4'000.0;
    std::size_t overshoot = 0, chunks = 0;
    for (const AdmittedSession& session : world.admitted()) {
      const auto replayed =
          world.replay_session(session.spec.session_id, {}, &overrides);
      for (const auto& c : replayed->dataset.player_chunks) {
        ++chunks;
        if (c.bitrate_kbps > 4'000) ++overshoot;
      }
    }
    return static_cast<double>(overshoot) / static_cast<double>(chunks);
  };

  const double naive = run_overshoot_share(false);
  const double filtered = run_overshoot_share(true);
  EXPECT_LT(filtered, naive);
  EXPECT_LT(filtered, 0.05);
}

TEST(UniversalHeadCacheTest, RemovesFirstChunkMisses) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 250;

  const auto first_chunk_miss_count = [&](bool universal) {
    RunOptions options;
    options.universal_head = universal;
    const RunResult run = run_simulation(scenario, std::move(options));
    std::size_t misses = 0;
    for (const auto& c : run.dataset.cdn_chunks) {
      if (c.chunk_id == 0 && !c.cache_hit()) ++misses;
    }
    return misses;
  };

  EXPECT_EQ(first_chunk_miss_count(true), 0u);
  EXPECT_GE(first_chunk_miss_count(false), first_chunk_miss_count(true));
}

TEST(PrefetchFleetTest, ReducesMissesEndToEnd) {
  const auto miss_ratio = [](std::uint32_t depth) {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 250;
    scenario.fleet.server.prefetch_on_miss = depth;
    const RunResult run = run_simulation(scenario);
    std::size_t misses = 0;
    for (const auto& c : run.dataset.cdn_chunks) {
      if (!c.cache_hit()) ++misses;
    }
    return static_cast<double>(misses) /
           static_cast<double>(run.dataset.cdn_chunks.size());
  };
  const double without = miss_ratio(0);
  const double with = miss_ratio(6);
  EXPECT_LT(with, without);
}

TEST(StallAbandonmentTest, StallsShortenSessionsWhenEnabled) {
  const auto mean_chunks_and_abandons = [](double p) {
    workload::Scenario scenario = workload::test_scenario();
    scenario.session_count = 250;
    scenario.sessions.abandon_probability = 0.0;
    scenario.stall_abandonment_probability = p;
    const RunResult run = run_simulation(scenario);
    double chunks = 0.0;
    for (const auto& s : run.dataset.player_sessions) {
      chunks += s.chunks_requested;
    }
    return std::pair<double, std::uint64_t>(
        chunks / 250.0, run.ground_truth.stall_abandonments);
  };
  const auto [chunks_off, abandons_off] = mean_chunks_and_abandons(0.0);
  const auto [chunks_on, abandons_on] = mean_chunks_and_abandons(1.0);
  EXPECT_EQ(abandons_off, 0u);
  // With certain abandonment on every stall, stalled sessions truncate.
  EXPECT_GT(abandons_on, 0u);
  EXPECT_LT(chunks_on, chunks_off);
}

TEST(StallAbandonmentTest, TruncatedCountMatchesTelemetry) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 200;
  scenario.stall_abandonment_probability = 1.0;
  const RunResult run = run_simulation(scenario);
  // chunks_requested must equal the number of chunk records per session.
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (const auto& c : run.dataset.player_chunks) {
    ++counts[c.session_id];
  }
  for (const auto& s : run.dataset.player_sessions) {
    EXPECT_EQ(counts[s.session_id], s.chunks_requested)
        << "session " << s.session_id;
  }
}

TEST(QoeIntegrationTest, AggregateFromPipelineIsSane) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 120;
  const RunResult run = run_simulation(scenario);
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  const analysis::QoeAggregate agg = analysis::aggregate_qoe(joined);
  EXPECT_EQ(agg.sessions, 120u);
  EXPECT_GT(agg.startup_ms.median, 0.0);
  EXPECT_LT(agg.startup_ms.median, 30'000.0);
  EXPECT_GE(agg.share_with_rebuffering, 0.0);
  EXPECT_LE(agg.share_with_rebuffering, 1.0);
  EXPECT_GE(agg.avg_bitrate_kbps.min, 300.0);
  EXPECT_LE(agg.avg_bitrate_kbps.max, 6'000.0);
}

}  // namespace
}  // namespace vstream::engine
