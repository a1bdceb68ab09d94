#include "analysis/accumulators.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "analysis/stats.h"

namespace vstream::analysis {

namespace {

/// Sort captured per-session entries into ascending session-id order —
/// the canonical fold order every finalize() uses.
template <typename Entry>
void sort_by_session(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.session_id < b.session_id;
            });
}

/// True when `drop` flags the session, which finalize() then leaves out.
bool flagged(const telemetry::ProxyFilterResult* drop,
             std::uint64_t session_id) {
  return drop != nullptr && drop->is_proxy(session_id);
}

template <typename Entry>
void append_entries(std::vector<Entry>& into, std::vector<Entry>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  std::vector<Entry>().swap(from);  // a merged-away accumulator holds nothing
}

/// The batch analyses: one accumulator fed every joined session.
template <typename Accumulator>
auto fold(Accumulator acc, const telemetry::JoinedDataset& data) {
  for (const telemetry::JoinedSession& session : data.sessions()) {
    acc.add(session);
  }
  return std::move(acc).finalize();
}

}  // namespace

QoeAggregate aggregate_qoe(const telemetry::JoinedDataset& data) {
  return fold(QoeAccumulator{}, data);
}

std::vector<PrefixRollup> rollup_prefixes(const telemetry::JoinedDataset& data) {
  return fold(PrefixRollupAccumulator{}, data);
}

RecoveryImpact recovery_impact(const telemetry::JoinedDataset& joined) {
  return fold(RecoveryImpactAccumulator{}, joined);
}

// ----------------------------------------------------------- QoeAccumulator

void QoeAccumulator::add(const telemetry::JoinedSession& session) {
  entries_.push_back({session.session_id, session_qoe(session)});
}

void QoeAccumulator::merge(QoeAccumulator&& other) {
  append_entries(entries_, std::move(other.entries_));
}

QoeAggregate QoeAccumulator::finalize(const telemetry::ProxyFilterResult* drop,
                                      std::vector<SessionQoeRow>* rows) && {
  sort_by_session(entries_);
  QoeAggregate agg;
  std::vector<double> startup, rebuf, bitrate, dropped;
  startup.reserve(entries_.size());
  rebuf.reserve(entries_.size());
  bitrate.reserve(entries_.size());
  dropped.reserve(entries_.size());
  std::size_t with_rebuf = 0;
  for (const SessionQoeRow& e : entries_) {
    if (flagged(drop, e.session_id)) continue;
    startup.push_back(e.qoe.startup_ms);
    rebuf.push_back(e.qoe.rebuffer_rate_pct);
    bitrate.push_back(e.qoe.avg_bitrate_kbps);
    dropped.push_back(e.qoe.dropped_frame_pct);
    if (e.qoe.rebuffer_events > 0) ++with_rebuf;
  }
  agg.sessions = startup.size();
  agg.startup_ms = summarize(std::move(startup));
  agg.rebuffer_rate_pct = summarize(std::move(rebuf));
  agg.avg_bitrate_kbps = summarize(std::move(bitrate));
  agg.dropped_frame_pct = summarize(std::move(dropped));
  agg.share_with_rebuffering =
      agg.sessions == 0
          ? 0.0
          : static_cast<double>(with_rebuf) / static_cast<double>(agg.sessions);
  if (rows != nullptr) *rows = std::move(entries_);
  return agg;
}

// -------------------------------------------------- PrefixRollupAccumulator

void PrefixRollupAccumulator::add(const telemetry::JoinedSession& session) {
  const SessionNetMetrics m = session_net_metrics(session);
  if (!m.valid) return;  // no SRTT sample: not part of any roll-up
  Entry e;
  e.session_id = session.session_id;
  e.prefix = net::prefix24_of(session.player->client_ip);
  e.srtt_min_ms = m.srtt_min_ms;
  e.srtt_mean_ms = m.srtt_mean_ms;
  e.distance_km = session.cdn->client_distance_km;
  e.country = session.cdn->country;
  e.org = session.cdn->org;
  e.access = session.cdn->access;
  entries_.push_back(std::move(e));
}

void PrefixRollupAccumulator::merge(PrefixRollupAccumulator&& other) {
  append_entries(entries_, std::move(other.entries_));
}

std::vector<PrefixRollup> PrefixRollupAccumulator::finalize(
    const telemetry::ProxyFilterResult* drop) && {
  sort_by_session(entries_);

  // Per-prefix fold in ascending session-id order: the FP sums and the
  // last-wins country/org/access depend only on the session set.
  struct Acc {
    std::size_t sessions = 0;
    double srtt_min = std::numeric_limits<double>::infinity();
    double mean_srtt_sum = 0.0;
    double distance_sum = 0.0;
    std::string country;
    std::string org;
    net::AccessType access = net::AccessType::kResidential;
  };
  std::unordered_map<net::Prefix24, Acc> acc;
  for (Entry& e : entries_) {
    if (flagged(drop, e.session_id)) continue;
    Acc& a = acc[e.prefix];
    ++a.sessions;
    a.srtt_min = std::min(a.srtt_min, e.srtt_min_ms);
    a.mean_srtt_sum += e.srtt_mean_ms;
    a.distance_sum += e.distance_km;
    a.country = std::move(e.country);
    a.org = std::move(e.org);
    a.access = e.access;
  }

  std::vector<PrefixRollup> rollups;
  rollups.reserve(acc.size());
  for (auto& [prefix, a] : acc) {
    PrefixRollup r;
    r.prefix = prefix;
    r.session_count = a.sessions;
    r.srtt_min_ms = a.srtt_min;
    r.mean_srtt_ms = a.mean_srtt_sum / static_cast<double>(a.sessions);
    r.distance_km = a.distance_sum / static_cast<double>(a.sessions);
    r.country = std::move(a.country);
    r.org = std::move(a.org);
    r.access = a.access;
    rollups.push_back(std::move(r));
  }
  std::sort(rollups.begin(), rollups.end(),
            [](const PrefixRollup& a, const PrefixRollup& b) {
              return a.prefix < b.prefix;
            });
  return rollups;
}

// ----------------------------------------------------- PerfScoreAccumulator

void PerfScoreAccumulator::add(const telemetry::JoinedSession& session) {
  Entry e;
  e.session_id = session.session_id;
  e.score_min = std::numeric_limits<double>::infinity();
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    if (chunk.player == nullptr) continue;
    ++e.chunks;
    if (chunk.player->dfb_ms + chunk.player->dlb_ms <= 0.0) continue;
    const double score = perf_score(chunk_duration_s_, chunk.player->dfb_ms,
                                    chunk.player->dlb_ms);
    ++e.scored;
    if (score < 1.0) ++e.bad;
    e.score_sum += score;
    e.score_min = std::min(e.score_min, score);
  }
  if (e.chunks > 0) entries_.push_back(e);
}

void PerfScoreAccumulator::merge(PerfScoreAccumulator&& other) {
  assert(chunk_duration_s_ == other.chunk_duration_s_);
  append_entries(entries_, std::move(other.entries_));
}

PerfScoreSummary PerfScoreAccumulator::finalize(
    const telemetry::ProxyFilterResult* drop) && {
  sort_by_session(entries_);
  PerfScoreSummary summary;
  double score_sum = 0.0;
  double score_min = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries_) {
    if (flagged(drop, e.session_id)) continue;
    summary.chunks += e.chunks;
    summary.scored_chunks += e.scored;
    summary.bad_chunks += e.bad;
    score_sum += e.score_sum;
    score_min = std::min(score_min, e.score_min);
  }
  if (summary.scored_chunks > 0) {
    summary.mean_score =
        score_sum / static_cast<double>(summary.scored_chunks);
    summary.min_score = score_min;
  }
  return summary;
}

// ------------------------------------------------ RecoveryImpactAccumulator

void RecoveryImpactAccumulator::add(const telemetry::JoinedSession& session) {
  Entry e;
  e.session_id = session.session_id;
  e.completed = session.player != nullptr && session.player->completed;
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    if (chunk.player == nullptr) continue;
    e.retries += chunk.player->retries;
    e.timeouts += chunk.player->timeouts;
    if (chunk.cdn != nullptr && chunk.cdn->served_stale) ++e.stale_chunks;
    if (chunk.cdn != nullptr) {
      if (chunk.cdn->shed) ++e.shed_chunks;
      if (chunk.cdn->hedged) ++e.hedged_chunks;
      if (chunk.cdn->hedge_won) ++e.hedge_wins;
      if (chunk.cdn->served_swr) ++e.swr_chunks;
      if (chunk.cdn->budget_denied) ++e.budget_denied_chunks;
    }
    if (chunk.player->retries > 0 || chunk.player->timeouts > 0 ||
        chunk.player->failed_over) {
      e.affected = true;
      e.recovery_sum += chunk.player->recovery_ms;
      ++e.recovery_chunks;
    }
    if (chunk.player->failed_over) {
      e.failed_over = true;
      e.dfb_failover_sum += chunk.player->dfb_ms;
      ++e.failover_chunks;
    } else if (chunk.player->retries == 0 && chunk.player->timeouts == 0) {
      e.dfb_clean_sum += chunk.player->dfb_ms;
      ++e.clean_chunks;
    }
  }
  e.stall_ms = session.total_rebuffer_ms();
  e.wall_ms = session.duration_ms();
  entries_.push_back(e);
}

void RecoveryImpactAccumulator::merge(RecoveryImpactAccumulator&& other) {
  append_entries(entries_, std::move(other.entries_));
}

RecoveryImpact RecoveryImpactAccumulator::finalize(
    const telemetry::ProxyFilterResult* drop) && {
  sort_by_session(entries_);
  RecoveryImpact impact;
  double recovery_sum = 0.0;
  std::uint64_t recovery_chunks = 0;
  double dfb_failover_sum = 0.0, dfb_clean_sum = 0.0;
  std::uint64_t failover_chunks = 0, clean_chunks = 0;
  double stall_sum = 0.0, wall_sum = 0.0;
  for (const Entry& e : entries_) {
    if (flagged(drop, e.session_id)) continue;
    ++impact.sessions;
    if (e.completed) ++impact.completed_sessions;
    if (e.failed_over) ++impact.failover_sessions;
    if (e.affected) ++impact.affected_sessions;
    impact.retries += e.retries;
    impact.timeouts += e.timeouts;
    impact.stale_chunks += e.stale_chunks;
    impact.shed_chunks += e.shed_chunks;
    impact.hedged_chunks += e.hedged_chunks;
    impact.hedge_wins += e.hedge_wins;
    impact.swr_chunks += e.swr_chunks;
    impact.budget_denied_chunks += e.budget_denied_chunks;
    recovery_sum += e.recovery_sum;
    recovery_chunks += e.recovery_chunks;
    dfb_failover_sum += e.dfb_failover_sum;
    failover_chunks += e.failover_chunks;
    dfb_clean_sum += e.dfb_clean_sum;
    clean_chunks += e.clean_chunks;
    stall_sum += e.stall_ms;
    wall_sum += e.wall_ms;
  }
  if (recovery_chunks > 0) {
    impact.mean_recovery_ms =
        recovery_sum / static_cast<double>(recovery_chunks);
  }
  if (failover_chunks > 0) {
    impact.mean_dfb_failover_ms =
        dfb_failover_sum / static_cast<double>(failover_chunks);
  }
  if (clean_chunks > 0) {
    impact.mean_dfb_clean_ms =
        dfb_clean_sum / static_cast<double>(clean_chunks);
  }
  if (wall_sum > 0.0) {
    impact.rebuffer_rate_percent = 100.0 * stall_sum / wall_sum;
  }
  return impact;
}

}  // namespace vstream::analysis
