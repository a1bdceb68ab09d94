// Worst-N attribution: which subsystem ruined the worst sessions?
//
// For each of the N worst-QoE sessions of a completed run, replay the
// session six times — factually (kNone, which must reproduce the original
// bit-exactly) and once per idealized subsystem — and fold the penalty
// deltas into blame fractions (analysis/attribution.h).  The replay
// matrix fans out across the work-stealing Executor; every replay writes
// into its own preallocated slot, so the report is deterministic for any
// thread count, like everything else in the engine.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/attribution.h"
#include "engine/replay.h"

namespace vstream::engine {

struct AttributionOptions {
  /// How many worst sessions to attribute.
  std::size_t worst_n = 20;
  analysis::PenaltyWeights weights;
  /// Physical threads for the replay matrix; 0 resolves via
  /// runtime::resolve_thread_count (VSTREAM_THREADS, else hardware).
  std::size_t threads = 0;
};

/// Attribute the worst of `sessions`: the measured QoE of every joined
/// session of the factual run whose world `ctx` rebuilt, proxies
/// included, in ascending session-id order (core::StreamingAnalysis's
/// session_qoe).  Sessions are ranked by penalty, ties toward the lower
/// id; each selected session is replayed per subsystem and the blame math
/// applied.  The report's sessions come back worst first.
analysis::AttributionReport attribute_worst(
    const ReplayContext& ctx,
    const std::vector<analysis::SessionQoeRow>& sessions,
    AttributionOptions options = {});

/// The same over `baseline`, the materialized dataset of the factual run:
/// ranks the sessions of its proxy-unfiltered join.
analysis::AttributionReport attribute_worst(const ReplayContext& ctx,
                                            const telemetry::Dataset& baseline,
                                            AttributionOptions options = {});

}  // namespace vstream::engine
