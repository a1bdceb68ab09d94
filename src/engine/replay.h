// Counterfactual session replay.
//
// The sharded engine makes every session's outcome a pure function of
// (warm archive, session spec, session RNG substream, fault schedule) —
// that is what buys partition invariance.  This module cashes the same
// property in a second way: ANY single session can be re-run on its own,
// long after the original simulation, and reproduce its records
// bit-exactly — or run with exactly one subsystem idealized
// (cdn/idealization.h) to measure what that subsystem cost it.
//
// ReplayContext rebuilds the world exactly as run_simulation() does (same
// master-RNG consumption order, same warm archive, same admission), then
// replays single sessions through one-session Shards.  replay_session()
// is const and thread-safe: replays share the immutable world and each
// construct their own shard-local state, so an Executor can fan a
// worst-N × subsystems matrix out across the pool.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/qoe.h"
#include "cdn/idealization.h"
#include "engine/admission.h"
#include "engine/engine.h"
#include "engine/overrides.h"
#include "engine/warmup.h"
#include "workload/population.h"

namespace vstream::engine {

/// One replayed session's outcome.
struct ReplayedSession {
  /// The session's full record set (player/CDN sessions and chunks, TCP
  /// snapshots) from the replay.
  telemetry::Dataset dataset;
  /// QoE of the replayed session, from the same join + metric pass the
  /// analysis tools use.
  analysis::SessionQoe qoe;
  /// False when the player surfaced a fatal error (recovery exhausted).
  bool completed = true;
  /// The replay's simulator ground truth (download-stack holds, proxy
  /// placement, recovery counters).
  GroundTruth ground_truth;
};

class ReplayContext {
 public:
  /// Rebuild the world for `scenario` + `options`.  Only the
  /// world-shaping options matter (warm_caches, disk_fill, universal_head,
  /// faults, bad_prefixes); execution options (shards, threads, spill,
  /// checkpointing) are ignored — a replay always runs one session on one
  /// shard.  Pass the same scenario and options as the original run or
  /// the replay measures a different world.
  ReplayContext(const workload::Scenario& scenario, RunOptions options = {});

  /// All admitted sessions, in session-id order — the same admission the
  /// original run executed.
  const std::vector<AdmittedSession>& admitted() const { return admitted_; }

  /// The world's scenario after overload-knob resolution.
  const workload::Scenario& scenario() const { return scenario_; }

  /// Re-run one session under `policy`.  A default (kNone) policy with no
  /// `overrides` is the factual replay and reproduces the original run's
  /// records for this session bit-exactly.  `overrides` (null for none)
  /// scripts the replay for case studies and ablations; its chunk_count
  /// replaces the admitted spec's.  Returns nullopt for a session id that
  /// was never admitted.  Thread-safe.
  std::optional<ReplayedSession> replay_session(
      std::uint64_t session_id, const cdn::IdealizationPolicy& policy = {},
      const SessionOverrides* overrides = nullptr) const;

 private:
  workload::Scenario scenario_;
  std::shared_ptr<const workload::VideoCatalog> catalog_;
  /// The admitted specs point into the population's prefix profiles; it
  /// must live as long as they do.
  std::unique_ptr<workload::Population> population_;
  WarmArchive warm_;
  faults::FaultSchedule faults_;
  std::unordered_set<net::Prefix24> bad_prefixes_;
  std::vector<AdmittedSession> admitted_;
};

}  // namespace vstream::engine
