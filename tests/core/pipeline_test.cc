// The end-to-end measurement pipeline through the sharded engine: both
// telemetry sides, the join, determinism, warm-up and scripted sessions.
#include <gtest/gtest.h>

#include "cdn/fleet.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "engine/warmup.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

namespace vstream::engine {
namespace {

workload::Scenario tiny_scenario(std::size_t sessions = 60) {
  workload::Scenario s = workload::test_scenario();
  s.session_count = sessions;
  return s;
}

TEST(PipelineTest, ProducesBothTelemetrySides) {
  const RunResult run = run_simulation(tiny_scenario());
  const telemetry::Dataset& d = run.dataset;
  EXPECT_EQ(d.player_sessions.size(), 60u);
  EXPECT_EQ(d.cdn_sessions.size(), 60u);
  EXPECT_EQ(d.player_chunks.size(), d.cdn_chunks.size());
  EXPECT_GT(d.player_chunks.size(), 60u);
  EXPECT_GE(d.tcp_snapshots.size(), d.player_chunks.size());  // >= 1 per chunk
}

TEST(PipelineTest, DeterministicForSeed) {
  workload::Scenario s = tiny_scenario(30);
  const RunResult a = run_simulation(s);
  const RunResult b = run_simulation(s);
  const auto& da = a.dataset;
  const auto& db = b.dataset;
  ASSERT_EQ(da.player_chunks.size(), db.player_chunks.size());
  for (std::size_t i = 0; i < da.player_chunks.size(); ++i) {
    EXPECT_DOUBLE_EQ(da.player_chunks[i].dfb_ms, db.player_chunks[i].dfb_ms);
    EXPECT_DOUBLE_EQ(da.player_chunks[i].dlb_ms, db.player_chunks[i].dlb_ms);
    EXPECT_EQ(da.player_chunks[i].bitrate_kbps, db.player_chunks[i].bitrate_kbps);
  }
}

TEST(PipelineTest, DifferentSeedsDiffer) {
  workload::Scenario s1 = tiny_scenario(30);
  workload::Scenario s2 = tiny_scenario(30);
  s2.seed = s1.seed + 1;
  const RunResult a = run_simulation(s1);
  const RunResult b = run_simulation(s2);
  // At least some chunk timings must differ.
  const auto& da = a.dataset;
  const auto& db = b.dataset;
  bool any_diff = da.player_chunks.size() != db.player_chunks.size();
  for (std::size_t i = 0;
       !any_diff && i < std::min(da.player_chunks.size(), db.player_chunks.size());
       ++i) {
    any_diff = da.player_chunks[i].dfb_ms != db.player_chunks[i].dfb_ms;
  }
  EXPECT_TRUE(any_diff);
}

TEST(PipelineTest, JoinedDatasetIsComplete) {
  const RunResult run = run_simulation(tiny_scenario());
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  EXPECT_EQ(joined.sessions().size(), 60u);
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    EXPECT_NE(s.player, nullptr);
    EXPECT_NE(s.cdn, nullptr);
    ASSERT_FALSE(s.chunks.empty());
    for (const telemetry::JoinedChunk& c : s.chunks) {
      ASSERT_NE(c.player, nullptr);
      ASSERT_NE(c.cdn, nullptr);
      EXPECT_NE(c.last_snapshot, nullptr);
      EXPECT_GT(c.player->dfb_ms, 0.0);
      EXPECT_GE(c.player->dlb_ms, 0.0);
      EXPECT_GT(c.player->bitrate_kbps, 0u);
      EXPECT_GT(c.cdn->chunk_bytes, 0u);
    }
  }
}

TEST(PipelineTest, ChunkIdsAreDenseAndOrdered) {
  RunOptions cold;
  cold.warm_caches = false;
  const RunResult run = run_simulation(tiny_scenario(), cold);
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      EXPECT_EQ(s.chunks[i].player->chunk_id, i);
    }
  }
}

TEST(PipelineTest, WarmCachesRaisesHitRate) {
  workload::Scenario s = tiny_scenario(120);
  RunOptions cold_options;
  cold_options.warm_caches = false;
  const RunResult cold = run_simulation(s, cold_options);
  const RunResult warm = run_simulation(s);
  const auto miss_ratio = [](const telemetry::Dataset& d) {
    std::size_t misses = 0;
    for (const auto& c : d.cdn_chunks) {
      if (!c.cache_hit()) ++misses;
    }
    return static_cast<double>(misses) / static_cast<double>(d.cdn_chunks.size());
  };
  EXPECT_LT(miss_ratio(warm.dataset), miss_ratio(cold.dataset));
}

TEST(PipelineTest, GroundTruthProxiesMatchFilterTargets) {
  workload::Scenario s = tiny_scenario(300);
  s.population.proxy_fraction = 0.15;
  RunOptions cold;
  cold.warm_caches = false;
  const RunResult run = run_simulation(s, cold);
  const auto& truth = run.ground_truth;
  ASSERT_GT(truth.proxied.size(), 10u);

  telemetry::ProxyFilterConfig config;
  config.max_sessions_per_ip = 8;
  const auto detected = telemetry::detect_proxies(run.dataset, config);
  // Every mismatch-detected session is truly proxied (rule (i) has no false
  // positives by construction).
  std::size_t truly_proxied = 0;
  for (const std::uint64_t id : detected.proxy_sessions) {
    if (truth.proxied.contains(id)) ++truly_proxied;
  }
  EXPECT_EQ(truly_proxied, detected.proxy_sessions.size());
  // And the filter catches a decent share of the truth.
  EXPECT_GT(static_cast<double>(detected.proxy_sessions.size()),
            0.4 * static_cast<double>(truth.proxied.size()));
}

TEST(PipelineTest, ScriptedSessionOverridesApply) {
  const ReplayContext world(tiny_scenario(1));
  const std::uint64_t id = world.admitted().front().spec.session_id;

  SessionOverrides overrides;
  overrides.abr = client::AbrKind::kFixed;
  overrides.fixed_bitrate_kbps = 1'500;
  overrides.disable_ds_anomalies = true;
  overrides.gpu = true;
  const auto replayed = world.replay_session(id, {}, &overrides);
  ASSERT_TRUE(replayed.has_value());

  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  ASSERT_EQ(joined.sessions().size(), 1u);
  const telemetry::JoinedSession& session = joined.sessions()[0];
  EXPECT_EQ(session.session_id, id);
  for (const telemetry::JoinedChunk& c : session.chunks) {
    EXPECT_EQ(c.player->bitrate_kbps, 1'500u);
  }
  EXPECT_TRUE(replayed->ground_truth.ds_anomalies.empty());
}

TEST(PipelineTest, PerChunkLossOverrideDrivesRetransmissions) {
  const ReplayContext world(tiny_scenario(1));

  SessionOverrides overrides;
  overrides.abr = client::AbrKind::kFixed;
  overrides.fixed_bitrate_kbps = 2'500;
  overrides.chunk_count = 10;
  overrides.bottleneck_kbps = 20'000.0;  // wide pipe: no drop-tail noise
  overrides.per_chunk_loss.assign(10, std::optional<double>(0.0));
  overrides.per_chunk_loss[4] = 0.25;  // heavy loss on chunk 4 only
  overrides.disable_ds_anomalies = true;
  const auto replayed = world.replay_session(
      world.admitted().front().spec.session_id, {}, &overrides);
  ASSERT_TRUE(replayed.has_value());

  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  ASSERT_EQ(joined.sessions().size(), 1u);
  const auto& chunks = joined.sessions()[0].chunks;
  ASSERT_EQ(chunks.size(), 10u) << "chunk_count overrides the video length";
  EXPECT_GT(chunks[4].retransmissions, 0u);
  // Chunks after the overridden one keep the new loss rate only until the
  // next override entry resets it (entry 5 = 0.0): no retransmissions.
  EXPECT_EQ(chunks[5].retransmissions, 0u);
}

TEST(PipelineTest, StartupDelayRecorded) {
  const RunResult run = run_simulation(tiny_scenario());
  for (const auto& s : run.dataset.player_sessions) {
    EXPECT_GT(s.startup_ms, 0.0);
    EXPECT_LT(s.startup_ms, 60'000.0);  // sane upper bound
  }
}

TEST(PipelineTest, DsAnomalyGroundTruthConsistent) {
  const RunResult run = run_simulation(tiny_scenario(400));
  const auto& truth = run.ground_truth;
  EXPECT_GT(truth.total_chunks, 0u);
  std::size_t listed = 0;
  for (const auto& [session, chunks] : truth.ds_anomalies) {
    listed += chunks.size();
  }
  EXPECT_EQ(listed, truth.total_ds_anomalies);
  // Anomalies are rare (paper: 0.32% of chunks) but nonzero at this size.
  EXPECT_LT(static_cast<double>(truth.total_ds_anomalies) /
                static_cast<double>(truth.total_chunks),
            0.05);
}

TEST(PipelineTest, WarmTiersFollowPopularity) {
  const RunResult run = run_simulation(tiny_scenario(0));
  const workload::VideoCatalog& catalog = *run.catalog;
  const cdn::Fleet fleet(run.scenario.fleet, catalog.size());
  const RunOptions defaults;
  const WarmArchive archive = build_warm_archive(
      fleet, catalog, defaults.disk_fill, defaults.universal_head);

  // The hottest video of each server is fully resident; a deep-tail video
  // (bottom 10% of the assigned list) holds nothing.
  const auto ladder = client::default_bitrate_ladder();
  for (std::uint32_t sidx = 0; sidx < fleet.servers_per_pop(); ++sidx) {
    // Find this server's hottest and coldest assigned videos.
    std::uint32_t hottest = 0;
    std::uint32_t coldest = 0;
    bool found = false;
    for (std::uint32_t v = 0; v < catalog.size(); ++v) {
      if (fleet.server_index_for_video(v) != sidx) continue;
      if (!found) hottest = v;
      coldest = v;
      found = true;
    }
    ASSERT_TRUE(found);
    const auto resident = [&](std::uint32_t video, std::uint32_t chunk) {
      const cdn::ChunkKey key{video, chunk, ladder[2]};
      return archive.peek(sidx, key) != cdn::CacheLevel::kMiss;
    };
    EXPECT_TRUE(resident(hottest, 0));
    EXPECT_TRUE(resident(hottest, catalog.video(hottest).chunk_count - 1));
    EXPECT_FALSE(resident(coldest, 0)) << "deep tail should be cold";
  }
}

}  // namespace
}  // namespace vstream::engine
