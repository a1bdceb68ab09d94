// Overload-protection layer: shed-probability policy, circuit-breaker state
// machine, retry budget, and their wiring into AtsServer::serve.
#include "cdn/overload.h"

#include <gtest/gtest.h>

#include "cdn/ats_server.h"
#include "cdn/cache.h"
#include "serve_session.h"

namespace vstream::cdn {
namespace {

ChunkKey key(std::uint32_t v, std::uint32_t c = 0) { return ChunkKey{v, c, 1500}; }

AtsConfig small_config() {
  AtsConfig config;
  config.ram_bytes = 10ull << 20;
  config.disk_bytes = 100ull << 20;
  return config;
}

// ---------------------------------------------------------------- shedding

TEST(ShedProbabilityTest, ZeroAtOrBelowWatermark) {
  const OverloadConfig cfg;  // watermark 1.25
  for (const double load : {0.0, 0.5, 1.0, 1.25}) {
    for (const RequestPriority p :
         {RequestPriority::kFirstChunk, RequestPriority::kLowBuffer,
          RequestPriority::kSteady, RequestPriority::kPrefetch}) {
      EXPECT_DOUBLE_EQ(shed_probability(cfg, load, p), 0.0)
          << "load=" << load << " priority=" << to_string(p);
    }
  }
}

TEST(ShedProbabilityTest, FirstChunksAreNeverShed) {
  const OverloadConfig cfg;
  for (const double load : {1.5, 2.0, 10.0, 100.0}) {
    EXPECT_DOUBLE_EQ(
        shed_probability(cfg, load, RequestPriority::kFirstChunk), 0.0)
        << "load=" << load;
  }
}

TEST(ShedProbabilityTest, PriorityOrderingAboveWatermark) {
  const OverloadConfig cfg;
  for (const double load : {1.5, 2.0, 3.0, 5.0, 20.0}) {
    const double prefetch =
        shed_probability(cfg, load, RequestPriority::kPrefetch);
    const double steady = shed_probability(cfg, load, RequestPriority::kSteady);
    const double low = shed_probability(cfg, load, RequestPriority::kLowBuffer);
    const double first =
        shed_probability(cfg, load, RequestPriority::kFirstChunk);
    EXPECT_DOUBLE_EQ(prefetch, 1.0) << "load=" << load;
    EXPECT_GE(prefetch, steady) << "load=" << load;
    EXPECT_GE(steady, low) << "load=" << load;
    EXPECT_GE(low, first) << "load=" << load;
    EXPECT_GT(steady, 0.0) << "load=" << load;
  }
}

TEST(ShedProbabilityTest, MonotoneInLoadFactor) {
  const OverloadConfig cfg;
  for (const RequestPriority p :
       {RequestPriority::kFirstChunk, RequestPriority::kLowBuffer,
        RequestPriority::kSteady, RequestPriority::kPrefetch}) {
    double previous = 0.0;
    for (double load = 1.0; load <= 8.0; load += 0.25) {
      const double prob = shed_probability(cfg, load, p);
      EXPECT_GE(prob, previous) << "load=" << load << " priority=" << to_string(p);
      previous = prob;
    }
  }
}

TEST(ShedProbabilityTest, LowBufferProtectedUntilTwiceWatermark) {
  const OverloadConfig cfg;
  // excess = 1 - watermark/load reaches 0.5 at load == 2 * watermark.
  EXPECT_DOUBLE_EQ(
      shed_probability(cfg, 2.0 * cfg.shed_watermark, RequestPriority::kLowBuffer),
      0.0);
  EXPECT_GT(shed_probability(cfg, 2.5 * cfg.shed_watermark,
                             RequestPriority::kLowBuffer),
            0.0);
}

// ---------------------------------------------------------- circuit breaker

TEST(CircuitBreakerTest, StaysClosedOnSuccesses) {
  const OverloadConfig cfg;
  CircuitBreaker breaker;
  for (int i = 0; i < 100; ++i) breaker.record(cfg, i * 10.0, true);
  EXPECT_EQ(breaker.state(cfg, 1'000.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.open_transitions(), 0u);
}

TEST(CircuitBreakerTest, TripsOnlyWithMinSamples) {
  const OverloadConfig cfg;  // min_samples 4, failure_ratio 0.5
  CircuitBreaker breaker;
  breaker.record(cfg, 0.0, false);
  breaker.record(cfg, 1.0, false);
  breaker.record(cfg, 2.0, false);
  EXPECT_EQ(breaker.state(cfg, 3.0), BreakerState::kClosed)
      << "three failures are below the evidence floor";
  breaker.record(cfg, 3.0, false);
  EXPECT_EQ(breaker.state(cfg, 4.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 1u);
}

TEST(CircuitBreakerTest, RecoversThroughHalfOpenProbes) {
  const OverloadConfig cfg;  // open dwell 5000 ms, 2 probe successes
  CircuitBreaker breaker;
  for (int i = 0; i < 4; ++i) breaker.record(cfg, 0.0, false);
  ASSERT_EQ(breaker.state(cfg, 100.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(cfg, cfg.breaker_open_ms), BreakerState::kHalfOpen);
  breaker.record(cfg, cfg.breaker_open_ms + 1.0, true);
  EXPECT_EQ(breaker.state(cfg, cfg.breaker_open_ms + 2.0),
            BreakerState::kHalfOpen)
      << "one probe success is not yet recovery";
  breaker.record(cfg, cfg.breaker_open_ms + 3.0, true);
  EXPECT_EQ(breaker.state(cfg, cfg.breaker_open_ms + 4.0),
            BreakerState::kClosed);
  EXPECT_EQ(breaker.open_transitions(), 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherDwell) {
  const OverloadConfig cfg;
  CircuitBreaker breaker;
  for (int i = 0; i < 4; ++i) breaker.record(cfg, 0.0, false);
  breaker.record(cfg, cfg.breaker_open_ms + 1.0, false);  // probe fails
  EXPECT_EQ(breaker.open_transitions(), 2u);
  EXPECT_EQ(breaker.state(cfg, cfg.breaker_open_ms + 2.0), BreakerState::kOpen);
  // The second dwell is counted from the failed probe, not the first trip.
  EXPECT_EQ(breaker.state(cfg, 2.0 * cfg.breaker_open_ms + 0.5),
            BreakerState::kOpen);
  EXPECT_EQ(breaker.state(cfg, 2.0 * cfg.breaker_open_ms + 1.0),
            BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips) {
  OverloadConfig cfg;
  cfg.breaker_enabled = false;
  CircuitBreaker breaker;
  for (int i = 0; i < 20; ++i) breaker.record(cfg, i * 1.0, false);
  EXPECT_EQ(breaker.state(cfg, 100.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.open_transitions(), 0u);
}

TEST(CircuitBreakerTest, OversizedWindowClampsTo64Outcomes) {
  OverloadConfig cfg;
  cfg.breaker_window = 200;  // clamps to the 64-bit ring
  cfg.breaker_min_samples = 64;
  CircuitBreaker breaker;
  for (int i = 0; i < 64; ++i) breaker.record(cfg, i * 1.0, true);
  EXPECT_EQ(breaker.state(cfg, 64.0), BreakerState::kClosed);
  // 32 failures over a full 64-wide ring reach the 0.5 failure ratio.
  for (int i = 0; i < 31; ++i) breaker.record(cfg, 100.0 + i, false);
  EXPECT_EQ(breaker.state(cfg, 200.0), BreakerState::kClosed);
  breaker.record(cfg, 150.0, false);
  EXPECT_EQ(breaker.state(cfg, 200.0), BreakerState::kOpen);
}

// ------------------------------------------------------------ retry budget

TEST(RetryBudgetTest, ColdStartHoldsInitialTokens) {
  const OverloadConfig cfg;  // initial 4.0
  RetryBudget budget;
  EXPECT_DOUBLE_EQ(budget.tokens(cfg), cfg.retry_budget_initial);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(budget.spend(cfg)) << "spend " << i;
  EXPECT_FALSE(budget.spend(cfg)) << "bucket must be dry after the initial 4";
}

TEST(RetryBudgetTest, EarnAccruesFractionOfAToken) {
  OverloadConfig cfg;
  cfg.retry_budget_ratio = 0.10;
  cfg.retry_budget_initial = 0.5;
  RetryBudget budget;
  EXPECT_FALSE(budget.spend(cfg));
  for (int i = 0; i < 4; ++i) budget.earn(cfg);  // ~0.9: still short
  EXPECT_FALSE(budget.spend(cfg));
  for (int i = 0; i < 2; ++i) budget.earn(cfg);  // ~1.1: one whole token
  EXPECT_TRUE(budget.spend(cfg));
  EXPECT_FALSE(budget.spend(cfg));
}

TEST(RetryBudgetTest, BucketDepthIsCapped) {
  const OverloadConfig cfg;  // cap 8.0
  RetryBudget budget;
  for (int i = 0; i < 10'000; ++i) budget.earn(cfg);
  EXPECT_DOUBLE_EQ(budget.tokens(cfg), cfg.retry_budget_cap);
}

// ----------------------------------------------------- server integration

TEST(OverloadServerTest, FlashCrowdShedsSteadyWorkButNeverFirstChunks) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server, {{key(1), CacheLevel::kRam}});
  server.set_overload(8.0);  // excess 0.84: steady shed probability is 1.0
  sim::Rng rng(21);

  ServeOptions steady;  // default priority kSteady
  for (int i = 0; i < 50; ++i) {
    const ServeResult r = session.serve(key(1), i * 10.0, rng, steady);
    EXPECT_TRUE(r.shed);
    EXPECT_TRUE(r.failed);
  }
  ServeOptions first;
  first.priority = RequestPriority::kFirstChunk;
  for (int i = 0; i < 50; ++i) {
    const ServeResult r = session.serve(key(1), 1'000.0 + i * 10.0, rng, first);
    EXPECT_FALSE(r.shed);
    EXPECT_FALSE(r.failed);
  }
  EXPECT_EQ(session.stats.shed_requests, 50u);
  // Shed requests are turned away before counting as served.
  EXPECT_EQ(session.stats.requests_served, 50u);
}

TEST(OverloadServerTest, OpenBreakerServesCachedStaleWhileRevalidate) {
  AtsConfig config = small_config();
  config.overload.hedge_enabled = false;
  AtsServer server(config, BackendConfig{});
  ServeSession session(server, {{key(1), CacheLevel::kRam}});
  server.set_backend_slowdown(10'000.0);  // every fetch blows the threshold
  sim::Rng rng(22);

  for (std::uint32_t i = 0; i < 4; ++i) {
    session.serve(key(100 + i), i * 1.0, rng);
  }
  ASSERT_EQ(session.state.breaker.state(config.overload, 10.0),
            BreakerState::kOpen);
  ASSERT_EQ(session.stats.breaker_open_transitions, 1u);

  // Cached object: served without an origin consult, flagged SWR.
  const ServeResult hit = session.serve(key(1), 20.0, rng);
  EXPECT_TRUE(hit.cache_hit());
  EXPECT_TRUE(hit.swr);
  EXPECT_FALSE(hit.failed);
  EXPECT_EQ(session.stats.swr_serves, 1u);

  // Uncached object: fast-fail instead of queueing on the melted origin.
  const ServeResult miss = session.serve(key(200), 21.0, rng);
  EXPECT_TRUE(miss.failed);
  EXPECT_FALSE(miss.shed);
  EXPECT_DOUBLE_EQ(miss.dbe_ms, 0.0);
  EXPECT_FALSE(miss.retry_timer_fired);
}

TEST(OverloadServerTest, BackendOutageTripsBreakerAndStaleWins) {
  AtsServer server(small_config(), BackendConfig{});
  ServeSession session(server, {{key(1), CacheLevel::kRam}});
  server.set_backend_down(true);
  sim::Rng rng(23);

  for (std::uint32_t i = 0; i < 4; ++i) {
    const ServeResult r = session.serve(key(100 + i), i * 1.0, rng);
    EXPECT_TRUE(r.failed);
  }
  EXPECT_EQ(session.stats.breaker_open_transitions, 1u);
  // During an outage the hit path reports stale (outage), not SWR (breaker).
  const ServeResult hit = session.serve(key(1), 10.0, rng);
  EXPECT_TRUE(hit.stale);
  EXPECT_FALSE(hit.swr);
}

TEST(OverloadServerTest, HedgedFetchCountsTowardBackendLoad) {
  // Regression: backend_requests() must include hedges — they reach a real
  // origin replica even when the primary response ends up winning.
  AtsConfig config = small_config();
  config.overload.hedge_after_ms = 0.001;  // hedge on effectively every miss
  AtsServer server(config, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(24);

  const ServeResult r = session.serve(key(1), 0.0, rng);
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(session.stats.hedged_fetches, 1u);
  EXPECT_EQ(session.stats.backend_requests(), 2u) << "primary fetch + hedge";
}

TEST(OverloadServerTest, HedgeWinsTakeTheFasterFirstByte) {
  AtsConfig config = small_config();
  config.overload.hedge_after_ms = 0.001;
  AtsServer server(config, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(25);

  std::uint64_t wins_seen = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const ServeResult r = session.serve(key(1'000 + i), i * 1'000.0, rng);
    if (r.hedge_won) {
      ++wins_seen;
      EXPECT_TRUE(r.hedged);
    }
  }
  EXPECT_GT(session.stats.hedge_wins, 0u);
  EXPECT_LE(session.stats.hedge_wins, session.stats.hedged_fetches);
  EXPECT_EQ(session.stats.hedge_wins, wins_seen);
  // The budget caps hedging near retry_budget_ratio of traffic (plus the
  // initial bucket), so most of the 200 misses went unhedged.
  EXPECT_LT(session.stats.hedged_fetches, 50u);
}

TEST(OverloadServerTest, DryRetryBudgetFastFailsRetries) {
  AtsConfig config = small_config();
  config.overload.hedge_enabled = false;
  config.overload.retry_budget_initial = 1.0;
  config.overload.retry_budget_ratio = 1e-6;  // effectively no refill
  AtsServer server(config, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(26);

  ServeOptions retry;
  retry.retry = true;
  const ServeResult first = session.serve(key(1), 0.0, rng, retry);
  EXPECT_FALSE(first.failed) << "one token: the first retry re-fetches";
  const ServeResult second = session.serve(key(2), 10.0, rng, retry);
  EXPECT_TRUE(second.budget_denied);
  EXPECT_TRUE(second.failed);
  EXPECT_EQ(session.stats.retry_budget_exhausted, 1u);
  // Fresh (non-retry) requests never draw on the budget.
  const ServeResult fresh = session.serve(key(3), 20.0, rng);
  EXPECT_FALSE(fresh.failed);
}

TEST(OverloadServerTest, IsolatedPathMirrorsSheddingAndBreaker) {
  AtsConfig config = small_config();
  config.overload.hedge_enabled = false;
  AtsServer server(config, BackendConfig{});
  ServeSession session(server);
  sim::Rng rng(27);

  // Shedding: driven purely by the fault-driven overload factor.
  server.set_overload(8.0);
  const ServeResult shed = session.serve(key(1), 0.0, rng);
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(session.stats.shed_requests, 1u);
  EXPECT_EQ(session.stats.requests_served, 0u);
  server.set_overload(1.0);

  // Breaker: fed only by this session's own observed outcomes.
  server.set_backend_down(true);
  for (std::uint32_t i = 0; i < 4; ++i) {
    session.serve(key(100 + i), 10.0 + i, rng);
  }
  EXPECT_EQ(session.stats.breaker_open_transitions, 1u);
  EXPECT_EQ(session.stats.backend_errors, 4u);
  server.set_backend_down(false);
  const ServeResult miss = session.serve(key(200), 20.0, rng);
  EXPECT_EQ(miss.breaker, BreakerState::kOpen);
  EXPECT_TRUE(miss.failed);
  EXPECT_DOUBLE_EQ(miss.dbe_ms, 0.0);
  // Another session on the same server never saw any of it.
  ServeSession other(server);
  const ServeResult fresh = other.serve(key(201), 20.0, rng);
  EXPECT_EQ(fresh.breaker, BreakerState::kClosed);
  EXPECT_FALSE(fresh.failed);
  EXPECT_EQ(other.stats.breaker_open_transitions, 0u);
}

}  // namespace
}  // namespace vstream::cdn
