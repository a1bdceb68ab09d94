// Blame math for counterfactual attribution.
//
// The engine replays a session once per idealized subsystem
// (cdn/idealization.h); this module turns the resulting QoE vector into a
// blame breakdown.  Everything here is pure arithmetic over SessionQoe —
// the replay orchestration lives in engine/attribution.h, so the analysis
// layer stays free of engine dependencies.
//
// Penalty: a scalar "badness" of one session's QoE, the quantity the
// paper's engagement citations make comparable across sessions —
//
//   penalty = startup_s * w_startup
//           + rebuffer_pct * w_rebuffer
//           + max(0, top_kbps - avg_bitrate_kbps)/1000 * w_bitrate
//
// Blame: for each subsystem i, raw_i = max(0, baseline − idealized_i) is
// the penalty that fixing subsystem i alone removes.  Normalizing by
// max(baseline, Σ raw) yields fractions that sum to ≤ 1 even when
// subsystems overlap (fixing either of two subsystems removes the same
// stall); the unexplained remainder is the residual — intrinsic cost
// (startup physics, client rendering) no single-subsystem fix recovers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "analysis/qoe.h"
#include "cdn/idealization.h"

namespace vstream::analysis {

/// Weights of the scalar QoE penalty (see file comment).  Defaults weight
/// one second of startup like one percent of rebuffering like one Mbps of
/// bitrate deficit against the top ladder rung.
struct PenaltyWeights {
  double startup_per_s = 1.0;
  double rebuffer_per_pct = 1.0;
  double bitrate_deficit_per_mbps = 1.0;
  /// Deficit reference: the top rung of the bitrate ladder (kbps).
  double top_bitrate_kbps = 6'000.0;
};

/// Scalar badness of one session's QoE; ≥ 0, lower is better.
double qoe_penalty(const SessionQoe& qoe, const PenaltyWeights& weights = {});

/// Indices of the worst-`n` entries of `rows` by penalty, worst first.
/// Ties break toward the lower index so the selection is deterministic.
std::vector<std::size_t> worst_sessions(const std::vector<SessionQoeRow>& rows,
                                        std::size_t n,
                                        const PenaltyWeights& weights = {});

/// One session's blame breakdown across the idealizable subsystems,
/// indexed by cdn::kIdealizedSubsystems order (cache, network, backend,
/// overload, abr).
struct SessionAttribution {
  std::uint64_t session_id = 0;
  /// Penalty of the factual (kNone) replay.
  double baseline_penalty = 0.0;
  /// Penalty with subsystem i idealized.
  double ideal_penalty[cdn::kIdealizedSubsystemCount] = {};
  /// Blame fraction per subsystem; each in [0, 1], Σ blame ≤ 1.
  double blame[cdn::kIdealizedSubsystemCount] = {};
  /// 1 − Σ blame when baseline_penalty > 0, else 0: the share of the
  /// penalty no single-subsystem fix removes.
  double residual = 0.0;
  /// The kNone replay reproduced the original run's QoE bit-exactly (it
  /// must; false means the replay world diverged from the measured run —
  /// wrong scenario flags, wrong seed — and the blame numbers are suspect).
  bool baseline_matches = true;
};

/// Fold a (baseline, idealized...) penalty vector into blame fractions.
SessionAttribution attribute_session(
    std::uint64_t session_id, double baseline_penalty,
    const double (&ideal_penalty)[cdn::kIdealizedSubsystemCount]);

/// The full worst-N attribution pass, worst session first.
struct AttributionReport {
  std::vector<SessionAttribution> sessions;
  /// Sessions the worst-N were drawn from.
  std::size_t sessions_analyzed = 0;
  PenaltyWeights weights;

  /// Mean blame fraction across the report's sessions for subsystem
  /// `index` (cdn::kIdealizedSubsystems order).
  double mean_blame(std::size_t index) const;
  double mean_residual() const;
};

/// Serialize a report as the BENCH_attribution.json document
/// (schema "vstream-attribution-v1").
void write_attribution_json(std::ostream& out,
                            const AttributionReport& report);

}  // namespace vstream::analysis
