#include "cdn/ats_server.h"

#include <algorithm>

namespace vstream::cdn {

AtsServer::AtsServer(AtsConfig config, BackendConfig backend)
    : config_(config), backend_(backend) {}

ServerStats& ServerStats::operator+=(const ServerStats& other) {
  requests_served += other.requests_served;
  ram_hits += other.ram_hits;
  disk_hits += other.disk_hits;
  misses += other.misses;
  prefetched_chunks += other.prefetched_chunks;
  collapsed_misses += other.collapsed_misses;
  backend_fetches += other.backend_fetches;
  stale_serves += other.stale_serves;
  backend_errors += other.backend_errors;
  shed_requests += other.shed_requests;
  hedged_fetches += other.hedged_fetches;
  hedge_wins += other.hedge_wins;
  breaker_open_transitions += other.breaker_open_transitions;
  retry_budget_exhausted += other.retry_budget_exhausted;
  swr_serves += other.swr_serves;
  return *this;
}

sim::Ms AtsServer::seek_penalty_ms(
    const std::unordered_map<std::uint32_t, sim::Ms>& last_access,
    std::uint32_t video_id, sim::Ms now) const {
  const auto it = last_access.find(video_id);
  if (it == last_access.end()) return config_.seek_max_ms;
  const sim::Ms gap = std::max(0.0, now - it->second);
  // Cold content has fallen out of the OS page cache and sits farther from
  // the disk head's working region; the penalty saturates at seek_max_ms.
  const double coldness = std::min(1.0, gap / config_.seek_cold_after_ms);
  return config_.seek_max_ms * coldness;
}

ServeResult AtsServer::serve(const ChunkKey& key, sim::Ms now, sim::Rng& rng,
                             const WarmArchive& warm,
                             std::uint32_t server_index,
                             SessionServerState& session, ServerStats& stats,
                             const ServeOptions& opts,
                             const IdealizationPolicy* ideal) const {
  const OverloadConfig& ocfg = config_.overload;
  const bool ideal_cache = ideal != nullptr && ideal->zero_latency_cache();
  const bool ideal_backend = ideal != nullptr && ideal->instant_backend();
  const bool no_overload = ideal != nullptr && ideal->no_overload();
  const bool backend_down = !ideal_backend && backend_down_;
  const auto first_byte_ms = [&] {
    return backend_.fetch_first_byte_ms(rng) * backend_slowdown_;
  };
  const auto error_response_ms = [&] {
    return rng.lognormal_median(config_.error_response_median_ms,
                                config_.error_response_sigma);
  };
  // The session's own promotions/admissions shadow the immutable warm
  // archive.
  const auto cached_level = [&](const ChunkKey& k) {
    return session.ram_overlay.contains(k) ? CacheLevel::kRam
                                           : warm.peek(server_index, k);
  };
  ServeResult result;

  // Every arriving request earns a sliver of retry budget (token bucket);
  // retries and hedges spend whole tokens, so internal retry traffic is
  // capped near retry_budget_ratio of the served load.
  session.retry_budget.earn(ocfg);
  const std::uint64_t trips_before = session.breaker.open_transitions();
  result.breaker = session.breaker.state(ocfg, now);
  if (no_overload) result.breaker = BreakerState::kClosed;

  // ---- D_wait: time until a service thread picks the request up.
  // Well-provisioned in production (§4.1: latency is NOT correlated with
  // load), so this is scheduling noise.
  result.dwait_ms =
      rng.lognormal_median(config_.wait_median_ms, config_.wait_sigma);

  // ---- D_open: header read + first open attempt ----
  result.dopen_ms =
      rng.lognormal_median(config_.open_median_ms, config_.open_sigma);

  // ---- priority load shedding (past the headers: priority is known) ----
  // Load is the fault-driven overload factor (flash crowd): a function of
  // simulated time only, identical on every shard.
  const double load_factor = no_overload ? 1.0 : overload_factor_;
  const double shed_p =
      no_overload ? 0.0 : shed_probability(ocfg, load_factor, opts.priority);
  if (shed_p > 0.0 && rng.bernoulli(shed_p)) {
    // Cheap local 503 before any cache work; the client retries elsewhere.
    ++stats.shed_requests;
    result.shed = true;
    result.failed = true;
    result.dread_ms = error_response_ms();
    return result;
  }

  // ---- cache lookup and D_read ----
  const CacheLevel level = ideal_cache ? CacheLevel::kRam : cached_level(key);
  result.level = level;

  // Read-while-writer: an object admitted by an earlier miss may still be
  // streaming in from the backend; a hit on it cannot produce a first byte
  // before the in-flight fetch does.  An ideal cache always has the bytes
  // resident.
  sim::Ms pending_fetch_ms = 0.0;
  if (!ideal_cache) {
    const auto inflight = session.inflight_fetches.find(key);
    if (inflight != session.inflight_fetches.end() && inflight->second > now) {
      pending_fetch_ms = inflight->second - now;
    }
  }

  switch (level) {
    case CacheLevel::kRam:
      ++stats.ram_hits;
      result.dread_ms = rng.lognormal_median(config_.ram_read_median_ms,
                                             config_.ram_read_sigma);
      if (pending_fetch_ms > 0.0) {
        ++stats.collapsed_misses;
        result.dread_ms += pending_fetch_ms;
      }
      if (backend_down) {
        result.stale = true;
        ++stats.stale_serves;
      } else if (result.breaker == BreakerState::kOpen) {
        // Open breaker: serve the cached copy without consulting the
        // origin (stale-while-revalidate); revalidation waits until the
        // breaker closes.
        result.swr = true;
        ++stats.swr_serves;
      }
      break;
    case CacheLevel::kDisk: {
      ++stats.disk_hits;
      // First open attempt does not return immediately (object not in RAM):
      // ATS's asynchronous read retries after the open-read-retry timer,
      // then pays the disk read plus a cold-content seek penalty (both
      // stretched while the disk is degraded).
      result.retry_timer_fired = true;
      const sim::Ms disk_read =
          (rng.lognormal_median(config_.disk_read_median_ms,
                                config_.disk_read_sigma) +
           seek_penalty_ms(session.last_video_access, key.video_id, now)) *
          disk_slowdown_;
      result.dread_ms = config_.open_retry_ms + disk_read + pending_fetch_ms;
      if (pending_fetch_ms > 0.0) ++stats.collapsed_misses;
      if (backend_down) {
        result.stale = true;
        ++stats.stale_serves;
      } else if (result.breaker == BreakerState::kOpen) {
        result.swr = true;
        ++stats.swr_serves;
      }
      session.ram_overlay.insert(key);  // promoted: "fresh in memory"
      break;
    }
    case CacheLevel::kMiss: {
      ++stats.misses;
      if (backend_down) {
        // Graceful degradation: with the origin unreachable a miss cannot
        // be filled.  Fail fast with a locally generated error — no cache
        // admission, no in-flight fetch — and let the client retry or fail
        // over to a server that still holds the object.  The breaker sees
        // the failure, so a sustained outage trips it and later misses
        // skip straight to the fast-fail below.
        ++stats.backend_errors;
        result.failed = true;
        result.dread_ms = error_response_ms();
        session.breaker.record(ocfg, now, /*success=*/false);
        break;
      }
      if (result.breaker == BreakerState::kOpen) {
        // Breaker open and nothing cached: fast-fail instead of queueing
        // on a melted origin.  The client retries or fails over.
        result.failed = true;
        result.dread_ms = error_response_ms();
        break;
      }
      // Collapsed forwarding: if this session already has the object in
      // flight from the backend (a prefetch), wait for that fetch instead
      // of issuing a duplicate.
      if (pending_fetch_ms > 0.0) {
        result.retry_timer_fired = true;
        ++stats.collapsed_misses;
        result.dbe_ms = pending_fetch_ms;
      } else {
        if (opts.retry && !(no_overload || session.retry_budget.spend(ocfg))) {
          // A re-issued request needs a fresh backend fetch but the retry
          // budget is dry: stop the retry storm here with a local error
          // rather than amplify the outage.
          ++stats.retry_budget_exhausted;
          result.budget_denied = true;
          result.failed = true;
          result.dread_ms = error_response_ms();
          break;
        }
        // Retry timer fires while the backend request is issued; backend
        // and delivery are pipelined (§2.1) so D_read is dominated by the
        // backend's first byte.
        result.retry_timer_fired = true;
        ++stats.backend_fetches;
        result.dbe_ms = ideal_backend ? 0.0 : first_byte_ms();
        // Hedged fetch: once the primary is past the backend's healthy p95
        // first byte, race one hedge against a second origin replica and
        // take whichever responds first.  Budget-bounded, and only while
        // the breaker is fully closed (half-open probes stay single).
        if (ocfg.hedge_enabled && result.breaker == BreakerState::kClosed) {
          const sim::Ms hedge_after = ocfg.hedge_after_ms > 0.0
                                          ? ocfg.hedge_after_ms
                                          : backend_.p95_first_byte_ms();
          if (result.dbe_ms > hedge_after &&
              (no_overload || session.retry_budget.spend(ocfg))) {
            ++stats.hedged_fetches;
            result.hedged = true;
            const sim::Ms hedge_total = hedge_after + first_byte_ms();
            if (hedge_total < result.dbe_ms) {
              result.dbe_ms = hedge_total;
              result.hedge_won = true;
              ++stats.hedge_wins;
            }
          }
        }
        session.breaker.record(
            ocfg, now, result.dbe_ms <= ocfg.breaker_latency_threshold_ms);
        session.inflight_fetches[key] = now + result.dbe_ms;
      }
      result.dread_ms = config_.open_retry_ms + result.dbe_ms;
      session.ram_overlay.insert(key);

      // §4.1-2 take-away: after the first miss, fetch the session's next
      // chunks in the background so its later requests hit.  The transfer
      // is asynchronous (off the serving path); the cost is backend load,
      // tracked in backend_requests().  Prefetches are the lowest-priority
      // class: an overloaded server sheds them first, and a non-closed
      // breaker suppresses them entirely.
      if (result.breaker == BreakerState::kClosed) {
        const double prefetch_shed_p =
            no_overload ? 0.0
                        : shed_probability(ocfg, load_factor,
                                           RequestPriority::kPrefetch);
        for (std::uint32_t ahead = 1; ahead <= config_.prefetch_on_miss;
             ++ahead) {
          const ChunkKey next{key.video_id, key.chunk_index + ahead,
                              key.bitrate_kbps};
          if (cached_level(next) != CacheLevel::kMiss) continue;
          if (prefetch_shed_p > 0.0 && rng.bernoulli(prefetch_shed_p)) {
            ++stats.shed_requests;  // suppressed speculative fetch
            continue;
          }
          session.ram_overlay.insert(next);
          ++stats.prefetched_chunks;
          // The speculative fetch is in flight too: a request arriving
          // before it completes waits for it (read-while-writer), it just
          // skips the backend round trip of its own.
          session.inflight_fetches[next] =
              now + (ideal_backend ? 0.0 : first_byte_ms());
        }
      }
      break;
    }
  }

  stats.breaker_open_transitions +=
      session.breaker.open_transitions() - trips_before;
  session.last_video_access[key.video_id] = now;
  ++stats.requests_served;
  return result;
}

}  // namespace vstream::cdn
