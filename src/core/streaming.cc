#include "core/streaming.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "runtime/executor.h"
#include "telemetry/join.h"

namespace vstream::core {

namespace {

/// The per-session fold behind a StreamingAnalysis: the join's counts and
/// the four mergeable accumulators.
struct Fold {
  explicit Fold(double chunk_duration_s) : perf(chunk_duration_s) {}

  std::size_t joined = 0;
  std::size_t as_proxy = 0;
  std::size_t incomplete = 0;
  analysis::QoeAccumulator qoe;
  analysis::PrefixRollupAccumulator prefixes;
  analysis::PerfScoreAccumulator perf;
  analysis::RecoveryImpactAccumulator recovery;

  void add(const telemetry::JoinedSession& session) {
    qoe.add(session);
    prefixes.add(session);
    perf.add(session);
    recovery.add(session);
  }

  /// Join every group of `stream` whose session `take` accepts, and add
  /// the joined sessions and the join's counts.
  template <typename Take>
  void join_and_add(telemetry::SessionGroupStream& stream,
                    const telemetry::ProxyFilterResult& proxies,
                    const Take& take) {
    telemetry::StreamingJoiner joiner(&proxies);
    while (auto group = stream.next()) {
      if (!take(group->session_id)) continue;
      if (const auto session = joiner.join(*group)) add(*session);
    }
    joined += joiner.sessions_joined();
    as_proxy += joiner.dropped_as_proxy();
    incomplete += joiner.dropped_incomplete();
  }

  void merge(Fold&& other) {
    joined += other.joined;
    as_proxy += other.as_proxy;
    incomplete += other.incomplete;
    qoe.merge(std::move(other.qoe));
    prefixes.merge(std::move(other.prefixes));
    perf.merge(std::move(other.perf));
    recovery.merge(std::move(other.recovery));
  }

  /// finalize() sorts by session id, so neither the feed order nor the
  /// merge grouping shows in the result.
  void finalize(StreamingAnalysis& out) && {
    out.sessions_joined = joined;
    out.dropped_as_proxy = as_proxy;
    out.dropped_incomplete = incomplete;
    out.qoe = std::move(qoe).finalize();
    out.prefixes = std::move(prefixes).finalize();
    out.perf = std::move(perf).finalize();
    out.recovery = std::move(recovery).finalize();
  }
};

}  // namespace

StreamingAnalysis analyze_spill(const telemetry::SpillSet& spill,
                                double chunk_duration_s,
                                const telemetry::ProxyFilterConfig& proxy_config,
                                std::size_t threads) {
  runtime::Executor executor(runtime::resolve_thread_count(threads));
  const std::vector<std::filesystem::path>& files = spill.files();
  StreamingAnalysis out;

  // Pass 1, per file: the session-level records (all proxy detection
  // needs) plus every block's session id (for cross-file session
  // detection), each file read by one task into its own slot.
  struct FileScan {
    telemetry::Dataset session_level;
    std::vector<std::uint64_t> ids;  ///< ascending; one per session group
    telemetry::SpillReadStats stats;
  };
  std::vector<FileScan> scans(files.size());
  executor.parallel_for(files.size(), [&](std::size_t f) {
    FileScan& scan = scans[f];
    telemetry::SpillSet one;
    one.add_file(files[f]);
    auto stream = one.open(&scan.stats);
    while (auto group = stream->next()) {
      scan.ids.push_back(group->session_id);
      for (auto& r : group->player_sessions) {
        scan.session_level.player_sessions.push_back(std::move(r));
      }
      for (auto& r : group->cdn_sessions) {
        scan.session_level.cdn_sessions.push_back(std::move(r));
      }
    }
  });

  // Salvage accounting comes from pass 1 only; the per-file counters sum
  // to exactly the merged stream's totals.
  for (const FileScan& scan : scans) out.spill += scan.stats;

  // Rebuild the merged-stream record order from the per-file runs — the
  // stable sort keeps file order among equal ids — then detect proxies on
  // it.  Proxy detection sees only the two session-level streams, so this
  // O(sessions) dataset reproduces detect_proxies on the full dataset
  // exactly.
  {
    telemetry::Dataset session_level;
    std::size_t players = 0, cdns = 0;
    for (const FileScan& scan : scans) {
      players += scan.session_level.player_sessions.size();
      cdns += scan.session_level.cdn_sessions.size();
    }
    session_level.player_sessions.reserve(players);
    session_level.cdn_sessions.reserve(cdns);
    for (FileScan& scan : scans) {
      for (auto& r : scan.session_level.player_sessions) {
        session_level.player_sessions.push_back(std::move(r));
      }
      for (auto& r : scan.session_level.cdn_sessions) {
        session_level.cdn_sessions.push_back(std::move(r));
      }
      scan.session_level = telemetry::Dataset{};
    }
    telemetry::canonicalize(session_level);
    out.proxies = telemetry::detect_proxies(session_level, proxy_config);
  }

  // Sessions whose blocks live in more than one file must be joined from
  // the *merged* group (the per-file fold would see torn halves and
  // mis-count them as incomplete).  The engine never produces them — a
  // session completes wholly on one shard — but analyze_spill accepts
  // arbitrary file sets.
  std::unordered_set<std::uint64_t> cross_file;
  {
    std::vector<std::uint64_t> all_ids;
    std::size_t total = 0;
    for (const FileScan& scan : scans) total += scan.ids.size();
    all_ids.reserve(total);
    for (const FileScan& scan : scans) {
      all_ids.insert(all_ids.end(), scan.ids.begin(), scan.ids.end());
    }
    std::sort(all_ids.begin(), all_ids.end());
    for (std::size_t i = 1; i < all_ids.size(); ++i) {
      if (all_ids[i] == all_ids[i - 1]) cross_file.insert(all_ids[i]);
    }
  }
  const auto single_file = [&](std::uint64_t id) {
    return cross_file.count(id) == 0;
  };

  // Pass 2, per file: join + accumulate into per-file folds, merged in
  // file order.
  std::vector<Fold> folds(files.size(), Fold(chunk_duration_s));
  executor.parallel_for(files.size(), [&](std::size_t f) {
    telemetry::SpillSet one;
    one.add_file(files[f]);
    auto stream = one.open();  // salvage was accounted in pass 1
    folds[f].join_and_add(*stream, out.proxies, single_file);
  });
  Fold total(chunk_duration_s);
  for (Fold& fold : folds) total.merge(std::move(fold));

  if (!cross_file.empty()) {
    // Final serial pass: the merged stream concatenates a cross-file
    // session's blocks in file order before the join sees them.
    auto stream = spill.open();
    total.join_and_add(*stream, out.proxies,
                       [&](std::uint64_t id) { return !single_file(id); });
  }

  std::move(total).finalize(out);
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
  fold.joined = joined.sessions().size();
  fold.as_proxy = joined.dropped_as_proxy();
  fold.incomplete = joined.dropped_incomplete();
  std::move(fold).finalize(out);
  return out;
}

}  // namespace vstream::core
