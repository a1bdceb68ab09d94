// Failure injection and extreme-configuration stress: the engine must
// stay invariant-clean when pushed far outside the calibrated regime.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

namespace vstream {
namespace {

void check_invariants(const engine::RunResult& run) {
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      ASSERT_NE(c.player, nullptr);
      ASSERT_NE(c.cdn, nullptr);
      EXPECT_GT(c.player->dfb_ms, 0.0);
      EXPECT_GE(c.player->dlb_ms, 0.0);
      EXPECT_LE(c.player->rebuffer_ms,
                c.player->dfb_ms + c.player->dlb_ms + 1e-6);
      EXPECT_LE(c.player->dropped_frames, c.player->total_frames);
      EXPECT_GE(c.cdn->dread_ms, c.cdn->dbe_ms);
    }
  }
}

workload::Scenario stress_base() {
  workload::Scenario s = workload::test_scenario();
  s.session_count = 80;
  return s;
}

TEST(StressTest, DialUpBottlenecks) {
  // 56 kbps modems: every chunk takes minutes; nothing may stall forever
  // or divide by zero.
  workload::Scenario s = stress_base();
  s.population.bandwidth_median_kbps = 56.0;
  s.population.min_bandwidth_kbps = 56.0;
  s.population.bandwidth_sigma = 0.01;
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
  // Everyone is throughput-starved: rebuffering must be rampant.
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  std::size_t stalled = 0;
  for (const auto& session : joined.sessions()) {
    if (session.total_rebuffer_ms() > 0.0) ++stalled;
  }
  EXPECT_GT(stalled, joined.sessions().size() / 2);
}

TEST(StressTest, ZeroRamCache) {
  workload::Scenario s = stress_base();
  s.fleet.server.ram_bytes = 0;  // every hit is a disk hit
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
  for (const cdn::ServerStats& stats : run.server_stats) {
    EXPECT_EQ(stats.ram_hits, 0u);
  }
}

TEST(StressTest, TinyDiskChurnsConstantly) {
  workload::Scenario s = stress_base();
  s.fleet.server.ram_bytes = 8ull << 20;
  s.fleet.server.disk_bytes = 64ull << 20;  // a handful of chunks
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
}

TEST(StressTest, BackendMeltdown) {
  // Every backend fetch is a multi-second hiccup.
  workload::Scenario s = stress_base();
  s.fleet.backend.hiccup_probability = 1.0;
  s.fleet.backend.hiccup_multiplier = 50.0;
  s.fleet.server.disk_bytes = 256ull << 20;  // force misses
  engine::RunOptions cold;  // cold caches: lots of backend traffic
  cold.warm_caches = false;
  const engine::RunResult run = engine::run_simulation(s, cold);
  check_invariants(run);
}

TEST(StressTest, EveryoneBehindProxies) {
  workload::Scenario s = stress_base();
  s.population.proxy_fraction = 1.0;
  const engine::RunResult run = engine::run_simulation(s);
  telemetry::ProxyFilterConfig config;
  config.max_sessions_per_ip = 5;
  const auto proxies = telemetry::detect_proxies(run.dataset, config);
  const auto joined =
      telemetry::JoinedDataset::build(run.dataset, &proxies);
  // Most sessions are filtered; whatever survives still joins cleanly.
  EXPECT_LT(joined.sessions().size(), 40u);
  EXPECT_EQ(joined.sessions().size() + joined.dropped_as_proxy(), 80u);
}

TEST(StressTest, AllEnterpriseHighSpikePopulation) {
  workload::Scenario s = stress_base();
  s.population.enterprise_fraction = 1.0;
  s.population.us_fraction = 1.0;
  s.population.congestion_prone_fraction = 1.0;
  s.congestion_epoch_probability = 1.0;
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
}

TEST(StressTest, ImmediateAbandonmentEverywhere) {
  workload::Scenario s = stress_base();
  s.stall_abandonment_probability = 1.0;
  s.population.bandwidth_median_kbps = 900.0;  // guarantees stalls
  s.population.min_bandwidth_kbps = 700.0;
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
}

TEST(StressTest, SingleChunkVideos) {
  workload::Scenario s = stress_base();
  s.catalog.duration_median_s = 5.0;
  s.catalog.duration_sigma = 0.05;
  s.catalog.min_duration_s = 4.0;
  s.catalog.max_duration_s = 6.0;
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
  for (const auto& session : run.dataset.player_sessions) {
    EXPECT_GE(session.chunks_requested, 1u);
    EXPECT_GT(session.startup_ms, 0.0);
  }
}

TEST(StressTest, HugeSessionCountSmokesThrough) {
  workload::Scenario s = workload::test_scenario();
  s.session_count = 2'000;
  const engine::RunResult run = engine::run_simulation(s);
  EXPECT_EQ(run.dataset.player_sessions.size(), 2'000u);
}

TEST(StressTest, PathologicalTcpConfigs) {
  workload::Scenario s = stress_base();
  s.tcp.initial_window = 1;
  s.tcp.max_cwnd = 4;
  s.rwnd_median_segments = 64.0;
  const engine::RunResult run = engine::run_simulation(s);
  check_invariants(run);
}

}  // namespace
}  // namespace vstream
