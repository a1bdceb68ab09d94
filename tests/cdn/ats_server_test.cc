#include "cdn/ats_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "serve_session.h"

namespace vstream::cdn {
namespace {

AtsConfig small_config() {
  AtsConfig config;
  config.ram_bytes = 10ull << 20;   // 10 MiB
  config.disk_bytes = 100ull << 20; // 100 MiB
  return config;
}

ChunkKey key(std::uint32_t v, std::uint32_t c = 0) { return ChunkKey{v, c, 1500}; }

TEST(AtsServerTest, ColdRequestIsMissWithBackendLatency) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(1);
  const ServeResult r = session.serve(key(1), 0.0, rng);
  EXPECT_EQ(r.level, CacheLevel::kMiss);
  EXPECT_FALSE(r.cache_hit());
  EXPECT_GT(r.dbe_ms, 0.0);
  EXPECT_TRUE(r.retry_timer_fired);
  // Miss D_read includes the retry timer plus backend first byte.
  EXPECT_GE(r.dread_ms, server.config().open_retry_ms + r.dbe_ms - 1e-9);
  EXPECT_EQ(session.stats.misses, 1u);
}

TEST(AtsServerTest, SecondRequestIsRamHit) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(1);
  session.serve(key(1), 0.0, rng);
  const ServeResult r = session.serve(key(1), 100.0, rng);
  EXPECT_EQ(r.level, CacheLevel::kRam);
  EXPECT_DOUBLE_EQ(r.dbe_ms, 0.0);
  EXPECT_FALSE(r.retry_timer_fired);
  EXPECT_EQ(session.stats.ram_hits, 1u);
}

TEST(AtsServerTest, RamHitLatencyCalibratedToPaper) {
  // Fig. 5 / §4.1-1: median server latency on a cache hit is ~2 ms.
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(2);
  session.serve(key(1), 0.0, rng);
  std::vector<double> totals;
  for (int i = 0; i < 2'001; ++i) {
    totals.push_back(session.serve(key(1), i * 10.0, rng).total_ms());
  }
  std::nth_element(totals.begin(), totals.begin() + totals.size() / 2,
                   totals.end());
  const double median = totals[totals.size() / 2];
  EXPECT_GT(median, 1.0);
  EXPECT_LT(median, 4.0);
}

TEST(AtsServerTest, MissLatencyRoughly40xHitLatency) {
  // §4.1-1: median miss latency (~80 ms) is ~40x the hit median (~2 ms).
  AtsServer server(small_config(), BackendConfig{});
  ServeSession hit_session(server);
  sim::Rng rng(3);
  hit_session.serve(key(1), 0.0, rng);

  std::vector<double> hits, misses;
  for (int i = 0; i < 1'500; ++i) {
    hits.push_back(hit_session.serve(key(1), i * 10.0, rng).total_ms());
    // A fresh session and key every time: always a miss.
    ServeSession miss_session(server);
    misses.push_back(miss_session.serve(key(100 + i), 0.0, rng).total_ms());
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double hit_median = median(hits);
  const double miss_median = median(misses);
  EXPECT_GT(miss_median / hit_median, 15.0);
  EXPECT_LT(miss_median / hit_median, 90.0);
}

TEST(AtsServerTest, DiskHitPaysRetryTimer) {
  // key(1) is warm on disk only.
  const AtsConfig config = small_config();
  AtsServer server(config, BackendConfig{});
  ServeSession session(server, {{key(1), CacheLevel::kDisk}});
  sim::Rng rng(4);
  const ServeResult r = session.serve(key(1), 20.0, rng);
  EXPECT_EQ(r.level, CacheLevel::kDisk);
  EXPECT_TRUE(r.retry_timer_fired);
  EXPECT_GE(r.dread_ms, config.open_retry_ms);
  EXPECT_DOUBLE_EQ(r.dbe_ms, 0.0);
}

TEST(AtsServerTest, ColdContentPaysSeekPenalty) {
  // Fig. 6b: unpopular (cold) videos see higher read latency even on hits.
  AtsServer server(small_config(), BackendConfig{});
  sim::Rng rng(5);

  // Two chunks of video 1 sit on disk only.  Touch the video, then read
  // its other chunk quickly (warm disk) vs after a long gap (cold disk).
  const auto disk_read_after = [&](sim::Ms gap_ms) {
    ServeSession session(server, {{key(1, 0), CacheLevel::kDisk},
                                  {key(1, 1), CacheLevel::kDisk}});
    session.serve(key(1, 0), 0.0, rng);
    const ServeResult r = session.serve(key(1, 1), gap_ms, rng);
    EXPECT_EQ(r.level, CacheLevel::kDisk);
    return r.dread_ms;
  };
  double warm_sum = 0.0, cold_sum = 0.0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    warm_sum += disk_read_after(50.0);
    cold_sum += disk_read_after(200'000.0);
  }
  EXPECT_GT(cold_sum / trials, warm_sum / trials + 5.0);
}

TEST(AtsServerTest, DcdnExcludesBackendShare) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(6);
  const ServeResult r = session.serve(key(1), 0.0, rng);
  EXPECT_NEAR(r.dcdn_ms() + r.dbe_ms, r.total_ms(), 1e-9);
}

TEST(AtsServerTest, CountersAddUp) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    session.serve(key(static_cast<std::uint32_t>(i % 7)), i * 5.0, rng);
  }
  const ServerStats& stats = session.stats;
  EXPECT_EQ(stats.requests_served, 200u);
  EXPECT_EQ(stats.ram_hits + stats.disk_hits + stats.misses, 200u);
  EXPECT_GT(stats.miss_ratio(), 0.0);
  EXPECT_LT(stats.miss_ratio(), 1.0);
}

TEST(AtsServerTest, WarmPreloadsWithoutCountingRequests) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server, {{key(1), CacheLevel::kRam}});
  EXPECT_EQ(session.stats.requests_served, 0u);
  sim::Rng rng(8);
  const ServeResult r = session.serve(key(1), 0.0, rng);
  EXPECT_EQ(r.level, CacheLevel::kRam);
}

TEST(AtsServerTest, WaitDelayStaysSmallAtLowLoad) {
  // §4.1: servers are well provisioned; D_wait < 1 ms for most chunks.
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(9);
  int below_1ms = 0;
  const int n = 2'000;
  for (int i = 0; i < n; ++i) {
    const ServeResult r = session.serve(key(1), i * 100.0, rng);
    if (r.dwait_ms < 1.0) ++below_1ms;
  }
  EXPECT_GT(static_cast<double>(below_1ms) / n, 0.75);
}

TEST(AtsServerTest, SimultaneousMissesDoNotQueue) {
  // No accept queue couples requests: a burst of simultaneous misses (each
  // a backend fetch) leaves D_wait at scheduling noise, as in production
  // (§4.1: server latency is not correlated with load).
  AtsServer server(small_config(), BackendConfig{});
  sim::Rng rng(11);
  double max_wait = 0.0;
  for (int i = 0; i < 32; ++i) {
    ServeSession session(server);
    const ServeResult r = session.serve(key(1'000 + i), 0.0, rng);
    ASSERT_EQ(r.level, CacheLevel::kMiss);
    max_wait = std::max(max_wait, r.dwait_ms);
  }
  EXPECT_LT(max_wait, 10.0);
}

}  // namespace
}  // namespace vstream::cdn
