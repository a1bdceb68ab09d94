#include "core/streaming.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

#include "runtime/executor.h"
#include "telemetry/join.h"

namespace vstream::core {

namespace {

/// Move `from`'s records to the end of `into` and free `from`, so a
/// merge does not hold every record twice.
template <typename Record>
void append(std::vector<Record>& into, std::vector<Record>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  std::vector<Record>().swap(from);
}

/// The per-session fold behind a StreamingAnalysis: the four mergeable
/// accumulators, plus what analyze_spill's finalize needs beyond them.
struct Fold {
  explicit Fold(double chunk_duration_s) : perf(chunk_duration_s) {}

  analysis::QoeAccumulator qoe;
  analysis::PrefixRollupAccumulator prefixes;
  analysis::PerfScoreAccumulator perf;
  analysis::RecoveryImpactAccumulator recovery;
  /// Every CDN session record's proxy-rule input, in stream order.
  std::vector<telemetry::CdnSessionVerdict> verdicts;
  std::size_t incomplete = 0;
  telemetry::SpillReadStats stats;

  void add(const telemetry::JoinedSession& session) {
    qoe.add(session);
    prefixes.add(session);
    perf.add(session);
    recovery.add(session);
  }

  /// Join and add every group of `stream`, with no proxy filter, and
  /// keep its CDN session records' verdicts.  A group holds all of its
  /// session's records, so its first beacon is the session's first
  /// beacon.
  void join_all(telemetry::SessionGroupStream& stream) {
    telemetry::StreamingJoiner joiner;
    while (auto group = stream.next()) {
      if (const auto session = joiner.join(*group)) add(*session);
      const telemetry::PlayerSessionRecord* beacon =
          group->player_sessions.empty() ? nullptr
                                         : &group->player_sessions.front();
      for (const telemetry::CdnSessionRecord& cdn : group->cdn_sessions) {
        verdicts.push_back(telemetry::rule_i_verdict(cdn, beacon));
      }
    }
    incomplete += joiner.dropped_incomplete();
  }

  void merge(Fold&& other) {
    qoe.merge(std::move(other.qoe));
    prefixes.merge(std::move(other.prefixes));
    perf.merge(std::move(other.perf));
    recovery.merge(std::move(other.recovery));
    append(verdicts, std::move(other.verdicts));
    incomplete += other.incomplete;
    stats += other.stats;
  }

  /// finalize() sorts by session id, so neither the feed order nor the
  /// merge grouping shows in the result.  Sessions `drop` flags are left
  /// out of the aggregates; `rows`, when set, gets every session's QoE.
  void finalize(const telemetry::ProxyFilterResult* drop,
                std::vector<analysis::SessionQoeRow>* rows,
                StreamingAnalysis& out) && {
    out.qoe = std::move(qoe).finalize(drop, rows);
    out.prefixes = std::move(prefixes).finalize(drop);
    out.perf = std::move(perf).finalize(drop);
    out.recovery = std::move(recovery).finalize(drop);
  }
};

}  // namespace

StreamingAnalysis analyze_spill(const telemetry::SpillSet& spill,
                                double chunk_duration_s,
                                const telemetry::ProxyFilterConfig& proxy_config,
                                std::size_t threads) {
  runtime::Executor executor(runtime::resolve_thread_count(threads));

  // The one pass, a task per range, each into its own fold; the folds
  // merge in range order.  The index scan's and the per-range salvage
  // counters sum to exactly the whole-file stream's totals.
  Fold total(chunk_duration_s);
  std::vector<std::vector<telemetry::SpillBlockRef>> ranges =
      spill.ranges(&total.stats);
  std::vector<Fold> folds(ranges.size(), Fold(chunk_duration_s));
  executor.parallel_for(ranges.size(), [&](std::size_t r) {
    folds[r].join_all(*spill.open(std::move(ranges[r]), &folds[r].stats));
  });
  for (Fold& fold : folds) total.merge(std::move(fold));

  // Both rules count, so the verdicts' order flags what detect_proxies
  // over the loaded dataset would.
  StreamingAnalysis out;
  out.proxies = telemetry::detect_proxies(total.verdicts, proxy_config);
  out.spill = total.stats;
  out.dropped_incomplete = total.incomplete;
  std::move(total).finalize(&out.proxies, &out.session_qoe, out);

  // The join checks "incomplete" before "proxy", so the proxies it would
  // have dropped are exactly the flagged joined sessions.
  out.dropped_as_proxy = static_cast<std::size_t>(std::count_if(
      out.session_qoe.begin(), out.session_qoe.end(),
      [&](const analysis::SessionQoeRow& row) {
        return out.proxies.is_proxy(row.session_id);
      }));
  out.sessions_joined = out.session_qoe.size() - out.dropped_as_proxy;
  return out;
}

StreamingAnalysis analyze_dataset(const telemetry::Dataset& data,
                                  double chunk_duration_s,
                                  const telemetry::ProxyFilterConfig& proxy_config) {
  StreamingAnalysis out;
  out.proxies = telemetry::detect_proxies(data, proxy_config);
  const telemetry::JoinedDataset joined =
      telemetry::JoinedDataset::build(data, &out.proxies);
  Fold fold(chunk_duration_s);
  for (const telemetry::JoinedSession& session : joined.sessions()) {
    fold.add(session);
  }
  std::move(fold).finalize(nullptr, nullptr, out);
  out.sessions_joined = joined.sessions().size();
  out.dropped_as_proxy = joined.dropped_as_proxy();
  out.dropped_incomplete = joined.dropped_incomplete();
  out.session_qoe =
      analysis::session_qoe_rows(telemetry::JoinedDataset::build(data));
  return out;
}

}  // namespace vstream::core
