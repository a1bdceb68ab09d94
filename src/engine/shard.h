// Shard: one worker's complete replica delivery stack.
//
// Each shard owns a full copy of everything mutable a session touches —
// its own cdn::Fleet (cache-empty; content comes from the shared
// WarmArchive), its own sim::EventQueue, telemetry::Collector, GroundTruth,
// per-server ServerStats, and a replica faults::FaultInjector armed from
// the same FaultSchedule.  Shared inputs (scenario, catalog, warm archive,
// bad prefixes, admitted specs) are read-only while workers run, so the
// whole construction is free of data races by design.
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "cdn/fleet.h"
#include "engine/admission.h"
#include "engine/ground_truth.h"
#include "engine/overrides.h"
#include "engine/run_context.h"
#include "engine/session_runtime.h"
#include "engine/warmup.h"
#include "faults/fault_injector.h"
#include "sim/event_queue.h"
#include "telemetry/collector.h"

namespace vstream::engine {

/// What one batch hands back to run_sharded's ordered handover, and what
/// run_sharded returns (see sharded_runner.h).
struct ShardResult {
  /// Empty when the shard ran against a record sink (spill mode): the
  /// records went to the sink as sessions completed instead of
  /// materializing here.
  telemetry::Dataset dataset;
  GroundTruth ground_truth;
  std::vector<cdn::ServerStats> server_stats;  // pop * servers_per_pop + server
  /// Spill mode: the run's spill file (run_sharded's result only).
  std::vector<std::filesystem::path> spill_files;
  /// False only when a checkpointed run was stopped early
  /// (CheckpointConfig::stop_after_checkpoints): the spill file holds a
  /// committed prefix and a resume can finish the run.
  bool completed = true;
  /// True when a checkpoint sidecar write failed mid-run and the run
  /// degraded to checkpoint-free execution (results stay complete and
  /// correct; only crash-resumability is lost).
  bool checkpoints_degraded = false;
};

class Shard {
 public:
  /// All references must outlive the shard; none are modified.  `faults`
  /// may be null (no injection).  `sink` may be null (records materialize
  /// in the shard's dataset); when set it receives every record plus a
  /// session_complete() per finished session, and must outlive run().
  /// `ideal` may be null (factual run); when set, every session in the
  /// shard runs with that one subsystem idealized (counterfactual replay).
  Shard(const workload::Scenario& scenario,
        const workload::VideoCatalog& catalog, const WarmArchive& warm,
        const faults::FaultSchedule* faults,
        const std::unordered_set<net::Prefix24>* bad_prefixes,
        telemetry::RecordSink* sink = nullptr,
        const cdn::IdealizationPolicy* ideal = nullptr);

  /// Run this shard's session partition through the event queue and return
  /// the shard-local telemetry and accounting.  Call once.  `overrides`
  /// (null for none) scripts every session of the partition (see
  /// ReplayContext::replay_session).
  ShardResult run(std::span<const AdmittedSession> sessions,
                  const SessionOverrides* overrides = nullptr);

 private:
  void step_event(SessionRuntime* runtime);

  const workload::Scenario& scenario_;
  cdn::Fleet fleet_;
  sim::EventQueue queue_;
  telemetry::Collector collector_;
  GroundTruth ground_truth_;
  std::vector<cdn::ServerStats> server_stats_;
  std::unique_ptr<faults::FaultInjector> injector_;
  /// Shared per-round sample buffer for this shard's sessions (sessions
  /// step sequentially on the shard's event loop).
  std::vector<net::RoundSample> round_scratch_;
  RunContext ctx_;
};

}  // namespace vstream::engine
