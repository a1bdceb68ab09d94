// ATS-like CDN edge server.
//
// Models the Apache Traffic Server behaviours the paper's §4.1 findings
// hinge on:
//
//   * D_wait: accept-queue scheduling noise (the paper finds servers
//     well-provisioned, so the wait does not grow with load),
//   * D_open: header parsing + first attempt to open the cache object,
//   * the asynchronous open-read-retry timer: when the object is not
//     immediately available in RAM, ATS retries the open after a fixed
//     10 ms timer — the cause of the bimodal D_read distribution (Fig. 5),
//   * disk reads whose seek latency grows for cold (unpopular) content
//     (Fig. 6b), and
//   * backend fetches on misses (D_BE), pipelined with delivery.
//
// serve() returns the per-chunk server-side record of Table 2.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "cdn/backend.h"
#include "cdn/cache.h"
#include "cdn/chunk.h"
#include "cdn/idealization.h"
#include "cdn/overload.h"
#include "cdn/warm_archive.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace vstream::cdn {

struct AtsConfig {
  std::uint64_t ram_bytes = 8ull << 30;    ///< main-memory cache
  std::uint64_t disk_bytes = 256ull << 30; ///< disk cache
  PolicyKind policy = PolicyKind::kLru;

  sim::Ms open_retry_ms = 10.0;  ///< ATS open-read-retry timeout

  // Latency components (log-normal medians/shapes), calibrated to Fig. 5:
  // most chunks have D_wait < 1 ms and small D_open; RAM reads give a total
  // hit latency with median ~2 ms.
  sim::Ms wait_median_ms = 0.25;
  double wait_sigma = 0.8;
  sim::Ms open_median_ms = 0.6;
  double open_sigma = 0.7;
  sim::Ms ram_read_median_ms = 1.1;
  double ram_read_sigma = 0.55;
  sim::Ms disk_read_median_ms = 2.5;
  double disk_read_sigma = 0.5;

  /// Extra disk seek latency for cold content: grows with the time since
  /// the video was last touched on this server, up to seek_max_ms.
  sim::Ms seek_max_ms = 22.0;
  sim::Ms seek_cold_after_ms = sim::seconds(30.0);

  /// Latency of a locally generated error response (5xx on a miss during a
  /// backend outage): header parse + small formatting time, no cache read.
  sim::Ms error_response_median_ms = 0.4;
  double error_response_sigma = 0.5;

  /// Paper take-away §4.1-2: "the persistence of cache misses could be
  /// addressed by pre-fetching the subsequent chunks of a video session
  /// after the first miss."  On a miss, the server asynchronously fetches
  /// this many following chunks of the same (video, bitrate) from the
  /// backend and admits them; the session's later requests then hit.
  /// 0 disables prefetching (the paper's production behaviour).
  std::uint32_t prefetch_on_miss = 0;

  /// Overload protection: circuit breaker, retry budget, hedged fetches,
  /// priority load shedding (see cdn/overload.h).
  OverloadConfig overload;
};

/// Per-request context for the overload-protection layer.  Defaulted so
/// pre-overload call sites keep their meaning (a fresh, steady-priority
/// request).
struct ServeOptions {
  RequestPriority priority = RequestPriority::kSteady;
  /// Re-issued request (player retry after a timeout/error); backend
  /// re-fetches for retries draw on the server's retry budget.
  bool retry = false;
};

struct ServeResult {
  sim::Ms dwait_ms = 0.0;  ///< time in the accept queue
  sim::Ms dopen_ms = 0.0;  ///< header read -> first open attempt
  sim::Ms dread_ms = 0.0;  ///< first byte read + write to socket
                           ///< (includes retry timer, disk seek or D_BE)
  sim::Ms dbe_ms = 0.0;    ///< backend latency (misses only)
  CacheLevel level = CacheLevel::kMiss;
  bool retry_timer_fired = false;
  /// Error response instead of bytes (cache miss while the backend is
  /// unreachable).  The latency fields cover the error path; clients retry
  /// or fail over.
  bool failed = false;
  /// Served from cache while the backend was unreachable (graceful
  /// degradation: cached objects keep flowing through an origin outage).
  bool stale = false;

  // ---- overload protection (see cdn/overload.h) ----

  /// Rejected by priority load shedding (failed is also set; the response
  /// is a cheap local 503).
  bool shed = false;
  /// Cached object served stale-while-revalidate under an open breaker
  /// (no origin consult; revalidation deferred until the breaker closes).
  bool swr = false;
  /// A hedge fetch to a second backend replica was issued for this miss.
  bool hedged = false;
  /// The hedge's first byte beat the primary's (D_BE is the hedge's).
  bool hedge_won = false;
  /// A retry needed a backend fetch but the retry budget was dry
  /// (failed is also set; the retry storm stops here).
  bool budget_denied = false;
  /// Breaker state observed while serving this request.
  BreakerState breaker = BreakerState::kClosed;

  bool cache_hit() const { return level != CacheLevel::kMiss; }
  /// D_CDN of Eq. 1: everything the CDN adds before the first byte, with
  /// the backend share reported separately as D_BE.
  sim::Ms dcdn_ms() const { return dwait_ms + dopen_ms + dread_ms - dbe_ms; }
  /// Total server-side latency as the paper plots it ("total-hit" /
  /// "total-miss" in Fig. 5).
  sim::Ms total_ms() const { return dwait_ms + dopen_ms + dread_ms; }
};

/// Serve counters, kept outside the server object so the sharded engine
/// can account them per shard and sum across shards after the run.
struct ServerStats {
  std::uint64_t requests_served = 0;
  std::uint64_t ram_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  /// Chunks fetched speculatively after misses (backend load the §4.1-2
  /// recommendation pays for its latency win).
  std::uint64_t prefetched_chunks = 0;
  /// Requests that waited for the session's own in-flight backend fetch
  /// of the same object instead of issuing another (read-while-writer).
  std::uint64_t collapsed_misses = 0;
  std::uint64_t backend_fetches = 0;
  std::uint64_t stale_serves = 0;    ///< hits served while the backend was down
  std::uint64_t backend_errors = 0;  ///< misses turned into error responses

  // ---- overload protection ----
  std::uint64_t shed_requests = 0;         ///< requests + suppressed prefetches
  std::uint64_t hedged_fetches = 0;        ///< hedges issued (extra backend load)
  std::uint64_t hedge_wins = 0;            ///< hedge beat the primary
  std::uint64_t breaker_open_transitions = 0;  ///< closed/half-open -> open
  std::uint64_t retry_budget_exhausted = 0;    ///< retries denied a re-fetch
  std::uint64_t swr_serves = 0;            ///< stale-while-revalidate serves

  double miss_ratio() const {
    return requests_served == 0
               ? 0.0
               : static_cast<double>(misses) /
                     static_cast<double>(requests_served);
  }
  /// Actual backend load: regular fetches + prefetches + hedges.  Hedges
  /// hit a real origin replica, so they count; budget-denied retries never
  /// reach the backend, so they are structurally excluded.
  std::uint64_t backend_requests() const {
    return backend_fetches + prefetched_chunks + hedged_fetches;
  }
  ServerStats& operator+=(const ServerStats& other);
};

/// One session's private view of a server's mutable serving state.  Serve
/// outcomes must be a pure function of (immutable warm cache, the
/// session's own request history, the session's RNG substream) — otherwise
/// they would depend on how sessions interleave, which changes with the
/// shard count.  Everything a request changes therefore lives here, scoped
/// to one session: its own admissions/promotions, its own seek recency,
/// its own in-flight backend fetches, its own breaker and retry budget.
struct SessionServerState {
  /// Chunks this session promoted into or admitted to RAM on this server.
  std::unordered_set<ChunkKey, ChunkKeyHash> ram_overlay;
  /// When this session last touched each video here (seek recency).
  std::unordered_map<std::uint32_t, sim::Ms> last_video_access;
  /// This session's own in-flight backend fetches (read-while-writer and
  /// prefetch pipelining).
  std::unordered_map<ChunkKey, sim::Ms, ChunkKeyHash> inflight_fetches;
  /// This session's view of the server's circuit breaker, fed only by its
  /// own observed backend outcomes.
  CircuitBreaker breaker;
  /// This session's slice of the server's retry budget (same rationale).
  RetryBudget retry_budget;
};

/// An edge server: immutable configuration plus the degradation flags the
/// fault injector drives.  All serving state is external (the warm archive,
/// the session's SessionServerState, the caller's ServerStats), so serve()
/// is const and concurrent calls with distinct state are race-free.
class AtsServer {
 public:
  AtsServer(AtsConfig config, BackendConfig backend);

  /// Serve one chunk request arriving at `now` (simulated clock) on the
  /// server at within-PoP index `server_index`.  Cache content is that
  /// index's residency in the immutable `warm` archive, shadowed by the
  /// session's own boundless overlay; counters go to `stats`.  D_wait is
  /// scheduling noise only — there is no cross-session accept queue (§4.1:
  /// server latency is not correlated with load).  `ideal` (null for
  /// factual serving) is the counterfactual-replay hook
  /// (cdn/idealization.h).
  ///
  /// Determinism contract: for a null (or kNone) `ideal` the RNG draws are
  /// D_wait, D_open, the shed coin (only when the shed probability is
  /// positive), the level's read or error latency, the backend first byte,
  /// the hedge's first byte, and per prefetch its shed coin and first
  /// byte — in that order.  tests/engine/serve_equivalence_test.cc pins
  /// the exported CSV bytes of a full run to golden hashes.
  /// Idealizations may skip draws; replay output is then deterministic per
  /// policy, just no longer byte-comparable to the factual run.
  ServeResult serve(const ChunkKey& key, sim::Ms now, sim::Rng& rng,
                    const WarmArchive& warm, std::uint32_t server_index,
                    SessionServerState& session, ServerStats& stats,
                    const ServeOptions& opts = {},
                    const IdealizationPolicy* ideal = nullptr) const;

  // ---- degraded-operation modes (driven by faults::FaultInjector) ----

  /// Backend outage: misses return errors (ServeResult::failed) instead of
  /// fetching; cache hits keep serving and are marked stale.
  void set_backend_down(bool down) { backend_down_ = down; }
  bool backend_down() const { return backend_down_; }
  /// Multiply backend first-byte latency (origin brownout).  1.0 = healthy.
  void set_backend_slowdown(double factor) { backend_slowdown_ = factor; }
  /// Multiply disk read + seek latency (failing/rebuilding disk).
  void set_disk_degradation(double factor) { disk_slowdown_ = factor; }
  /// Overload epoch (flash crowd): offered load as a multiple of nominal
  /// capacity.  1.0 = normal; above the shed watermark the server sheds
  /// low-priority work (driven by faults::FaultKind::kOverload).
  void set_overload(double factor) { overload_factor_ = factor; }
  double overload() const { return overload_factor_; }

  const AtsConfig& config() const { return config_; }

 private:
  /// Cold-content seek penalty from the session's video access recency.
  sim::Ms seek_penalty_ms(
      const std::unordered_map<std::uint32_t, sim::Ms>& last_access,
      std::uint32_t video_id, sim::Ms now) const;

  AtsConfig config_;
  Backend backend_;

  bool backend_down_ = false;
  double backend_slowdown_ = 1.0;
  double disk_slowdown_ = 1.0;
  double overload_factor_ = 1.0;
};

}  // namespace vstream::cdn
