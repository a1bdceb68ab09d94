// Analysis over spilled telemetry, one session resident at a time.
//
// analyze_spill() folds a spilled run (its one .vspill file) in one pass:
// the file's id-sorted block index is cut into ranges of whole sessions
// (telemetry::SpillSet::ranges), a task per range on a runtime::Executor.
// Each task reads its range through a reader of its own, joins every
// session with a StreamingJoiner (join.h), folds it into the mergeable
// accumulators of analysis/accumulators.h, and keeps of each CDN session
// record only what the §3 proxy filter reads: its session, observed IP
// and rule (i) verdict (telemetry::CdnSessionVerdict).  The per-range
// folds merge in range order; finalize then applies both rules once over
// the merged verdicts — rule (ii) counts sessions per IP over the whole
// dataset, so no single range can apply it — and the accumulators leave
// the flagged sessions out.  Memory is O(sessions), whatever the chunk
// count.
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
  /// Every joined session's QoE, proxies included, in ascending session
  /// id: the ranking input of engine::attribute_worst.
  std::vector<analysis::SessionQoeRow> session_qoe;
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
/// `threads` is the worker count of the pool the per-range tasks run on;
/// 0 resolves via runtime::resolve_thread_count (VSTREAM_THREADS, else
/// hardware concurrency), and 1 — the default — runs every task inline.
/// Every value produces a bit-identical StreamingAnalysis.  A range holds
/// whole sessions, so every session joins from all of its blocks.
StreamingAnalysis analyze_spill(const telemetry::SpillSet& spill,
                                double chunk_duration_s,
                                const telemetry::ProxyFilterConfig& proxy_config = {},
                                std::size_t threads = 1);

/// Same analysis over a canonical in-memory dataset: detect_proxies, then
/// JoinedDataset::build with the proxies dropped in the join, then the
/// same accumulator fold; the session_qoe rows come from a second,
/// unfiltered JoinedDataset::build.  The independent oracle for the spill
/// path.
StreamingAnalysis analyze_dataset(const telemetry::Dataset& data,
                                  double chunk_duration_s,
                                  const telemetry::ProxyFilterConfig& proxy_config = {});

}  // namespace vstream::core
