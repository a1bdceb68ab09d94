// Analysis over spilled telemetry, one session resident at a time.
//
// analyze_spill() folds a spilled run (one .vspill file per shard) in two
// passes, each a task per file on a runtime::Executor:
//
//   pass 1  session-level records only -> proxy detection (the §3 filter
//           needs nothing chunk-grained), O(sessions) memory
//   pass 2  StreamingJoiner (join.h) + the mergeable accumulators of
//           analysis/accumulators.h, merged in file order
//
// The accumulators' finalize() sorts by session id, so the result is a
// pure function of the per-session records: analyze_spill on a spilled
// run and analyze_dataset on the equivalent in-memory run agree exactly,
// for every shard and thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/accumulators.h"
#include "telemetry/proxy_filter.h"
#include "telemetry/spill_format.h"

namespace vstream::core {

struct StreamingAnalysis {
  telemetry::ProxyFilterResult proxies;
  std::size_t sessions_joined = 0;
  std::size_t dropped_as_proxy = 0;
  std::size_t dropped_incomplete = 0;
  analysis::QoeAggregate qoe;
  analysis::RecoveryImpact recovery;
  analysis::PerfScoreSummary perf;  ///< Eq. 2 roll-up over joined chunks
  std::vector<analysis::PrefixRollup> prefixes;
  /// Spill-path salvage accounting: all-damage-counters-zero on a clean
  /// read (spill.corrupted() == false).  A degraded spill still analyzes
  /// — corrupt blocks are skipped, torn tails truncated — and this is
  /// where the caller learns how much survived.  Always clean for
  /// analyze_dataset (no disk involved).
  telemetry::SpillReadStats spill;
};

/// Analyze a spilled run (engine::RunResult::spill).  `chunk_duration_s`
/// is Eq. 2's tau — workload::VideoCatalog::chunk_duration_s().
///
/// `threads` is the worker count of the pool the per-file tasks run on;
/// 0 resolves via runtime::resolve_thread_count (VSTREAM_THREADS, else
/// hardware concurrency), and 1 — the default — runs every task inline.
/// Every value produces a bit-identical StreamingAnalysis: proxy
/// detection sees the session records in merged-stream order (ascending
/// id, file-order ties) whatever the partition.  Sessions whose blocks
/// span several files (never produced by the engine, where a session
/// completes wholly on one shard) are joined from their merged group in
/// a final serial pass, so their groups are never split.
StreamingAnalysis analyze_spill(const telemetry::SpillSet& spill,
                                double chunk_duration_s,
                                const telemetry::ProxyFilterConfig& proxy_config = {},
                                std::size_t threads = 1);

/// Same analysis over a canonical in-memory dataset: detect_proxies, then
/// JoinedDataset::build, then the same accumulator fold — the independent
/// oracle for the spill path.
StreamingAnalysis analyze_dataset(const telemetry::Dataset& data,
                                  double chunk_duration_s,
                                  const telemetry::ProxyFilterConfig& proxy_config = {});

}  // namespace vstream::core
