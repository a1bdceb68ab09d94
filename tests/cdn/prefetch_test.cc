#include <gtest/gtest.h>

#include "cdn/ats_server.h"
#include "serve_session.h"

namespace vstream::cdn {
namespace {

AtsConfig config_with_prefetch(std::uint32_t depth) {
  AtsConfig config;
  config.ram_bytes = 64ull << 20;
  config.disk_bytes = 512ull << 20;
  config.prefetch_on_miss = depth;
  return config;
}

ChunkKey key(std::uint32_t video, std::uint32_t chunk) {
  return ChunkKey{video, chunk, 1'500};
}

TEST(PrefetchTest, DisabledByDefault) {
  AtsServer server(AtsConfig{}, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(1);
  session.serve(key(1, 0), 0.0, rng);
  EXPECT_EQ(session.stats.prefetched_chunks, 0u);
  // The next chunk was not prefetched: it misses.
  EXPECT_EQ(session.serve(key(1, 1), 10.0, rng).level,
            CacheLevel::kMiss);
}

TEST(PrefetchTest, MissTriggersPrefetchOfFollowingChunks) {
  AtsServer server(config_with_prefetch(3), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(2);
  const ServeResult first = session.serve(key(7, 0), 0.0, rng);
  EXPECT_EQ(first.level, CacheLevel::kMiss);
  EXPECT_EQ(session.stats.prefetched_chunks, 3u);

  // Chunks 1..3 now hit; chunk 4 is beyond the prefetch window.
  for (std::uint32_t c = 1; c <= 3; ++c) {
    EXPECT_TRUE(session.serve(key(7, c), c * 10.0, rng).cache_hit())
        << "chunk " << c;
  }
  EXPECT_EQ(session.serve(key(7, 4), 40.0, rng).level,
            CacheLevel::kMiss);
}

TEST(PrefetchTest, PrefetchedChunksServeFromRam) {
  AtsServer server(config_with_prefetch(2), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(3);
  session.serve(key(7, 0), 0.0, rng);
  // Freshly admitted -> RAM-resident: no retry timer, fast read.
  const ServeResult r = session.serve(key(7, 1), 10.0, rng);
  EXPECT_EQ(r.level, CacheLevel::kRam);
  EXPECT_FALSE(r.retry_timer_fired);
}

TEST(PrefetchTest, NoDoubleFetchOfCachedChunks) {
  AtsServer server(config_with_prefetch(4), BackendConfig{});
  // Chunk 2 already cached.
  ServeSession session(server, {{key(9, 2), CacheLevel::kRam}});
  sim::Rng rng(4);
  session.serve(key(9, 0), 0.0, rng);
  // Chunks 1, 3, 4 prefetched; chunk 2 skipped (already resident).
  EXPECT_EQ(session.stats.prefetched_chunks, 3u);
}

TEST(PrefetchTest, BackendRequestsIncludePrefetches) {
  AtsServer server(config_with_prefetch(2), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(5);
  session.serve(key(1, 0), 0.0, rng);   // miss + 2 prefetches
  session.serve(key(2, 0), 10.0, rng);  // miss + 2 prefetches
  EXPECT_EQ(session.stats.misses, 2u);
  EXPECT_EQ(session.stats.prefetched_chunks, 4u);
  EXPECT_EQ(session.stats.backend_requests(), 6u);
}

TEST(PrefetchTest, HitsNeverPrefetch) {
  AtsServer server(config_with_prefetch(4), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(6);
  session.serve(key(1, 0), 0.0, rng);
  const std::uint64_t after_miss = session.stats.prefetched_chunks;
  session.serve(key(1, 0), 10.0, rng);  // hit
  EXPECT_EQ(session.stats.prefetched_chunks, after_miss);
}

TEST(CollapsedForwardingTest, ConcurrentRequestsShareOneBackendFetch) {
  // Hedging off: a slow primary fetch would add a hedge to the backend
  // count, and this test counts collapsed forwarding alone.
  AtsConfig config;
  config.overload.hedge_enabled = false;
  AtsServer server(config, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(9);
  // First request misses and issues the backend fetch.
  const ServeResult first = session.serve(key(5, 0), 0.0, rng);
  ASSERT_EQ(first.level, CacheLevel::kMiss);
  EXPECT_EQ(session.stats.backend_requests(), 1u);

  // A near-simultaneous request for the same object hits the just-admitted
  // entry but must wait out the in-flight fetch (read-while-writer) — and
  // must NOT issue a second backend request.
  const ServeResult second = session.serve(key(5, 0), 1.0, rng);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(session.stats.backend_requests(), 1u);
  EXPECT_EQ(session.stats.collapsed_misses, 1u);
  // Its first byte cannot beat the backend's by more than the 1 ms skew.
  EXPECT_GE(second.dread_ms, first.dbe_ms - 1.0);

  // Long after the fetch completed, the same object is a plain fast hit.
  const ServeResult later = session.serve(key(5, 0), 10'000.0, rng);
  EXPECT_LT(later.dread_ms, 10.0);
  EXPECT_EQ(session.stats.collapsed_misses, 1u);
}

TEST(CollapsedForwardingTest, DistinctObjectsFetchIndependently) {
  AtsServer server(AtsConfig{}, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(10);
  session.serve(key(5, 0), 0.0, rng);
  session.serve(key(5, 1), 1.0, rng);
  EXPECT_EQ(session.stats.backend_requests(), 2u);
  EXPECT_EQ(session.stats.collapsed_misses, 0u);
}

// Property: with prefetch depth >= session length, a sequential session has
// exactly one miss regardless of where it starts.
class PrefetchDepthTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PrefetchDepthTest, SequentialSessionMissesOnce) {
  const std::uint32_t chunks = GetParam();
  AtsServer server(config_with_prefetch(chunks), BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(7);
  std::size_t misses = 0;
  for (std::uint32_t c = 0; c < chunks; ++c) {
    if (!session.serve(key(3, c), c * 10.0, rng).cache_hit()) ++misses;
  }
  EXPECT_EQ(misses, 1u);
}

INSTANTIATE_TEST_SUITE_P(Depths, PrefetchDepthTest,
                         ::testing::Values(2u, 5u, 17u, 40u));

}  // namespace
}  // namespace vstream::cdn
