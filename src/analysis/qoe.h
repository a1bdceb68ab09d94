// Quality-of-Experience metrics.
//
// The paper grounds its impact statements in the QoE metrics prior work
// ties to engagement (§4, citing Dobrian et al. and Krishnan & Sitaraman):
// startup delay, re-buffering ratio, average bitrate and rendering
// quality.  This module computes them per session and in aggregate so
// experiments compare like with like.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stats.h"
#include "telemetry/join.h"

namespace vstream::analysis {

struct SessionQoe {
  double startup_ms = 0.0;
  double rebuffer_rate_pct = 0.0;    ///< stall time / session wall time
  std::uint32_t rebuffer_events = 0;
  double avg_bitrate_kbps = 0.0;
  double dropped_frame_pct = 0.0;    ///< over visible chunks
  std::uint32_t bitrate_switches = 0;
  std::size_t chunks = 0;

  bool operator==(const SessionQoe&) const = default;
};

/// Per-session QoE from the joined records; `startup_ms` comes from the
/// player session record.
SessionQoe session_qoe(const telemetry::JoinedSession& session);

/// One joined session's QoE, keyed by session id: what QoeAccumulator
/// keeps per session, and the ranking input of worst-N attribution.
struct SessionQoeRow {
  std::uint64_t session_id = 0;
  SessionQoe qoe;

  bool operator==(const SessionQoeRow&) const = default;
};

/// Every session of `data`, in its order (ascending id).
std::vector<SessionQoeRow> session_qoe_rows(
    const telemetry::JoinedDataset& data);

struct QoeAggregate {
  SummaryStats startup_ms;
  SummaryStats rebuffer_rate_pct;
  SummaryStats avg_bitrate_kbps;
  SummaryStats dropped_frame_pct;
  double share_with_rebuffering = 0.0;
  std::size_t sessions = 0;
};

/// QoeAccumulator (analysis/accumulators.h) folded over every session.
QoeAggregate aggregate_qoe(const telemetry::JoinedDataset& data);

}  // namespace vstream::analysis
