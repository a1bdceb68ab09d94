// Server-side overload protection: the backend-protection layer the paper
// only hints at.
//
// The paper frames the CDN's own mechanisms as *backend protection* — the
// 10 ms open-read-retry timer exists "to protect the backend" (§4.1-2) and
// server latency under cache misses dominates startup delay (Fig. 5).  The
// production stack therefore needs more than failover and stale serving:
//
//   * a per-server CIRCUIT BREAKER around backend fetches (closed -> open
//     on error/latency breaches -> half-open probe).  While open, requests
//     for cached objects are served stale-while-revalidate (no origin
//     consult) and uncached misses fast-fail instead of queueing on a
//     melted origin;
//   * a RETRY BUDGET (token bucket, ~10% of requests) capping
//     fleet-internal retries and hedges, so retry storms cannot amplify an
//     outage;
//   * HEDGED backend fetches: once the primary fetch is past the backend's
//     p95 first byte, a single hedge goes to a second origin replica and
//     the first response wins (bounded by the retry budget);
//   * PRIORITY LOAD SHEDDING: past a load watermark a server sheds
//     low-priority work first — prefetches, then mid-session chunks with
//     healthy client buffers — and never first chunks (startup latency is
//     the paper's headline QoE metric, Fig. 4).
//
// Determinism: the sharded engine requires serve outcomes to be a pure
// function of (immutable warm state, the session's own history, the
// session's RNG substream).  CircuitBreaker and RetryBudget are therefore
// plain state holders configured per call — every session's per-server
// overlay (SessionServerState) keeps its own pair for AtsServer::serve(),
// fed only by that session's observed backend outcomes.  Server-level
// overload pressure comes from fault-driven epochs (FaultKind::kOverload),
// which are pure functions of simulated time and identical on every shard.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace vstream::cdn {

/// Circuit-breaker state, in the classic closed -> open -> half-open cycle.
enum class BreakerState : std::uint8_t {
  kClosed,    ///< backend healthy; fetches flow
  kOpen,      ///< backend protected; SWR hits, fast-fail misses
  kHalfOpen,  ///< probing: limited fetches allowed to test recovery
};

const char* to_string(BreakerState state);

/// Request priority for load shedding, most to least protected.
enum class RequestPriority : std::uint8_t {
  kFirstChunk,  ///< session startup: never shed (Fig. 4's QoE anchor)
  kLowBuffer,   ///< client close to a stall: shed only under deep overload
  kSteady,      ///< mid-session chunk with a healthy client buffer
  kPrefetch,    ///< speculative backend work: first to go
};

const char* to_string(RequestPriority priority);

struct OverloadConfig {
  // ---- circuit breaker around backend fetches ----
  bool breaker_enabled = true;
  /// A backend first byte slower than this counts as a breaker failure
  /// (healthy p99.9 is well under it; a browned-out origin's median is
  /// well over it).  vstream-sim --breaker-threshold overrides.
  sim::Ms breaker_latency_threshold_ms = 200.0;
  /// Trip when the failure share of the outcome window reaches this.
  double breaker_failure_ratio = 0.5;
  std::uint32_t breaker_window = 8;       ///< sliding window of outcomes
  std::uint32_t breaker_min_samples = 4;  ///< evidence needed to trip
  sim::Ms breaker_open_ms = 5'000.0;      ///< open dwell before half-open
  /// Consecutive probe successes needed to close from half-open.
  std::uint32_t breaker_probe_successes = 2;

  // ---- retry budget (token bucket) ----
  /// Tokens earned per served request; ~10% of traffic may be retries or
  /// hedges.  vstream-sim --retry-budget (in percent) overrides.
  double retry_budget_ratio = 0.10;
  double retry_budget_cap = 8.0;      ///< bucket depth
  double retry_budget_initial = 4.0;  ///< tokens at cold start

  // ---- hedged backend fetches ----
  bool hedge_enabled = true;
  /// Issue the hedge when the primary fetch is past this; 0 resolves to
  /// the backend's analytic p95 first byte (Backend::p95_first_byte_ms).
  sim::Ms hedge_after_ms = 0.0;

  // ---- priority load shedding ----
  /// Load factor (multiples of nominal capacity) above which shedding
  /// starts.  vstream-sim --shed-watermark (in percent) overrides.
  double shed_watermark = 1.25;
};

/// Shed probability for a request of `priority` at `load_factor` (multiples
/// of nominal capacity).  0 at or below the watermark.  Above it, the
/// excess share 1 - watermark/load is turned away in priority order:
/// prefetches go entirely, steady mid-session chunks carry the bulk,
/// low-buffer chunks only under deep (> 2x watermark) overload, and first
/// chunks are never shed.  Monotone in load_factor for every class.
double shed_probability(const OverloadConfig& config, double load_factor,
                        RequestPriority priority);

/// Deterministic breaker state machine around one server's backend fetches.
/// Holds no configuration: callers pass the OverloadConfig on every call,
/// so a default-constructed object can sit in a per-session overlay.
class CircuitBreaker {
 public:
  /// Current state at `now`, advancing open -> half-open once the open
  /// dwell has passed.
  BreakerState state(const OverloadConfig& config, sim::Ms now);

  /// Record a fetch outcome.  Failures are errors or first bytes past
  /// breaker_latency_threshold_ms; the caller classifies.
  void record(const OverloadConfig& config, sim::Ms now, bool success);

  /// Closed/half-open -> open transitions so far (telemetry).
  std::uint64_t open_transitions() const { return open_transitions_; }

 private:
  void trip(sim::Ms now);

  BreakerState state_ = BreakerState::kClosed;
  sim::Ms opened_at_ms_ = 0.0;
  std::uint32_t window_fill_ = 0;
  std::uint32_t window_failures_ = 0;
  std::uint64_t outcome_bits_ = 0;  ///< bit i = i-th newest outcome failed
  std::uint32_t probe_successes_ = 0;
  std::uint64_t open_transitions_ = 0;
};

/// Token-bucket retry budget: every served request earns a fraction of a
/// token; each fleet-internal retry or hedge spends one.  Like the breaker,
/// it is configured per call so it can sit in a per-session overlay.
class RetryBudget {
 public:
  /// Accrue the per-request earn (call once per arriving request).
  void earn(const OverloadConfig& config);

  /// Take one token for a retry/hedge; false when the bucket is dry.
  bool spend(const OverloadConfig& config);

  double tokens(const OverloadConfig& config) const;

 private:
  /// Negative = not yet initialized from config.retry_budget_initial (the
  /// overlay is default-constructed before it ever sees a config).
  double tokens_ = -1.0;
};

}  // namespace vstream::cdn
