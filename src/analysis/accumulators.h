// Mergeable accumulators for the §4 aggregates — the one implementation
// of each.
//
// An accumulator consumes one JoinedSession at a time — fed from a
// StreamingJoiner as sessions stream off a sink — and so runs in
// O(sessions) memory regardless of the chunk count.  Per-shard
// accumulators merge() into one before finalize.  The batch entry points
// (aggregate_qoe, rollup_prefixes, recovery_impact) are the same
// accumulators folded over a materialized JoinedDataset.
//
// Determinism: each add() captures only per-session values; finalize()
// sorts the captured entries by session id and folds them in that order.
// The result is therefore a pure function of the per-session records —
// independent of feed order, shard count, or how accumulators were
// merged — so a streamed analysis and a batch one agree to the bit.
//
// Every finalize() takes an optional proxy set and leaves the sessions it
// flags out: the §3 proxy rule is global (sessions per IP over the whole
// dataset), so a streamed fold adds every joined session and drops the
// proxies only once the merged fold knows them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/detectors.h"
#include "analysis/qoe.h"
#include "telemetry/proxy_filter.h"

namespace vstream::analysis {

/// QoE summary over sessions (aggregate_qoe()).
class QoeAccumulator {
 public:
  void add(const telemetry::JoinedSession& session);
  void merge(QoeAccumulator&& other);
  /// When `rows` is set it receives every added session's row, the
  /// dropped ones included, in ascending session-id order.
  QoeAggregate finalize(const telemetry::ProxyFilterResult* drop = nullptr,
                        std::vector<SessionQoeRow>* rows = nullptr) &&;

 private:
  std::vector<SessionQoeRow> entries_;
};

/// Per-/24-prefix latency roll-up (rollup_prefixes()).
class PrefixRollupAccumulator {
 public:
  void add(const telemetry::JoinedSession& session);
  void merge(PrefixRollupAccumulator&& other);
  std::vector<PrefixRollup> finalize(
      const telemetry::ProxyFilterResult* drop = nullptr) &&;

 private:
  struct Entry {
    std::uint64_t session_id = 0;
    net::Prefix24 prefix = 0;
    double srtt_min_ms = 0.0;
    double srtt_mean_ms = 0.0;
    double distance_km = 0.0;
    std::string country;
    std::string org;
    net::AccessType access = net::AccessType::kResidential;
  };
  std::vector<Entry> entries_;
};

/// Eq. 2 performance-score roll-up over every joined chunk.
struct PerfScoreSummary {
  std::size_t chunks = 0;         ///< joined chunks seen
  std::size_t scored_chunks = 0;  ///< chunks with D_FB + D_LB > 0
  std::size_t bad_chunks = 0;     ///< perfscore < 1 (drained more than fetched)
  double mean_score = 0.0;        ///< over scored chunks
  double min_score = 0.0;

  double bad_share() const {
    return scored_chunks == 0 ? 0.0
                              : static_cast<double>(bad_chunks) /
                                    static_cast<double>(scored_chunks);
  }
};

class PerfScoreAccumulator {
 public:
  /// `chunk_duration_s` is Eq. 2's tau (workload::Scenario catalog value).
  explicit PerfScoreAccumulator(double chunk_duration_s)
      : chunk_duration_s_(chunk_duration_s) {}

  void add(const telemetry::JoinedSession& session);
  /// Both sides must have been built with the same chunk duration.
  void merge(PerfScoreAccumulator&& other);
  PerfScoreSummary finalize(
      const telemetry::ProxyFilterResult* drop = nullptr) &&;

 private:
  struct Entry {
    std::uint64_t session_id = 0;
    std::size_t chunks = 0;
    std::size_t scored = 0;
    std::size_t bad = 0;
    double score_sum = 0.0;  ///< in chunk order within the session
    double score_min = 0.0;
  };
  double chunk_duration_s_;
  std::vector<Entry> entries_;
};

/// What failure recovery cost the viewers (recovery_impact()).
class RecoveryImpactAccumulator {
 public:
  void add(const telemetry::JoinedSession& session);
  void merge(RecoveryImpactAccumulator&& other);
  RecoveryImpact finalize(
      const telemetry::ProxyFilterResult* drop = nullptr) &&;

 private:
  struct Entry {
    std::uint64_t session_id = 0;
    bool completed = false;
    bool failed_over = false;
    bool affected = false;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t stale_chunks = 0;
    std::uint64_t shed_chunks = 0;
    std::uint64_t hedged_chunks = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t swr_chunks = 0;
    std::uint64_t budget_denied_chunks = 0;
    double recovery_sum = 0.0;
    std::uint64_t recovery_chunks = 0;
    double dfb_failover_sum = 0.0;
    std::uint64_t failover_chunks = 0;
    double dfb_clean_sum = 0.0;
    std::uint64_t clean_chunks = 0;
    double stall_ms = 0.0;
    double wall_ms = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace vstream::analysis
