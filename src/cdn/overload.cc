#include "cdn/overload.h"

#include <algorithm>

namespace vstream::cdn {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

const char* to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kFirstChunk: return "first-chunk";
    case RequestPriority::kLowBuffer: return "low-buffer";
    case RequestPriority::kSteady: return "steady";
    case RequestPriority::kPrefetch: return "prefetch";
  }
  return "unknown";
}

double shed_probability(const OverloadConfig& config, double load_factor,
                        RequestPriority priority) {
  if (load_factor <= config.shed_watermark || config.shed_watermark <= 0.0) {
    return 0.0;
  }
  // Share of the offered load beyond the watermark: shedding exactly this
  // fraction keeps admitted work flat at the watermark (goodput plateaus
  // instead of collapsing).
  const double excess = 1.0 - config.shed_watermark / load_factor;
  switch (priority) {
    case RequestPriority::kFirstChunk:
      return 0.0;
    case RequestPriority::kPrefetch:
      return 1.0;
    case RequestPriority::kSteady:
      // Steady chunks absorb more than their share so lower-priority-only
      // shedding suffices for moderate overloads.
      return std::min(1.0, 1.5 * excess);
    case RequestPriority::kLowBuffer:
      // A client about to stall keeps its chunk until the server is past
      // twice the watermark (excess > 0.5), then sheds progressively.
      return std::clamp(2.0 * (excess - 0.5), 0.0, 1.0);
  }
  return 0.0;
}

void CircuitBreaker::trip(sim::Ms now) {
  state_ = BreakerState::kOpen;
  opened_at_ms_ = now;
  window_fill_ = 0;
  window_failures_ = 0;
  outcome_bits_ = 0;
  probe_successes_ = 0;
  ++open_transitions_;
}

BreakerState CircuitBreaker::state(const OverloadConfig& config, sim::Ms now) {
  if (!config.breaker_enabled) return BreakerState::kClosed;
  if (state_ == BreakerState::kOpen &&
      now >= opened_at_ms_ + config.breaker_open_ms) {
    state_ = BreakerState::kHalfOpen;
    probe_successes_ = 0;
  }
  return state_;
}

void CircuitBreaker::record(const OverloadConfig& config, sim::Ms now,
                            bool success) {
  if (!config.breaker_enabled) return;
  switch (state(config, now)) {
    case BreakerState::kOpen:
      // A late outcome from a fetch issued before the trip; the open
      // breaker has already made its decision.
      break;
    case BreakerState::kHalfOpen:
      if (!success) {
        trip(now);  // probe failed: back to open for another dwell
      } else if (++probe_successes_ >= config.breaker_probe_successes) {
        state_ = BreakerState::kClosed;  // recovered; fresh window
        window_fill_ = 0;
        window_failures_ = 0;
        outcome_bits_ = 0;
      }
      break;
    case BreakerState::kClosed: {
      const std::uint32_t window = std::max(1u, std::min(config.breaker_window, 64u));
      if (window_fill_ >= window) {
        // Evict the oldest outcome from the ring.
        if ((outcome_bits_ >> (window - 1)) & 1ull) --window_failures_;
        outcome_bits_ = (outcome_bits_ << 1) & ((window < 64 ? (1ull << window) : 0ull) - 1ull);
      } else {
        outcome_bits_ <<= 1;
        ++window_fill_;
      }
      if (!success) {
        outcome_bits_ |= 1ull;
        ++window_failures_;
      }
      if (window_fill_ >= config.breaker_min_samples &&
          static_cast<double>(window_failures_) >=
              config.breaker_failure_ratio * static_cast<double>(window_fill_)) {
        trip(now);
      }
      break;
    }
  }
}

void RetryBudget::earn(const OverloadConfig& config) {
  if (tokens_ < 0.0) tokens_ = config.retry_budget_initial;
  tokens_ = std::min(config.retry_budget_cap, tokens_ + config.retry_budget_ratio);
}

bool RetryBudget::spend(const OverloadConfig& config) {
  if (tokens_ < 0.0) tokens_ = config.retry_budget_initial;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::tokens(const OverloadConfig& config) const {
  return tokens_ < 0.0 ? config.retry_budget_initial : tokens_;
}

}  // namespace vstream::cdn
