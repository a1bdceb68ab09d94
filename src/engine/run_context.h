// RunContext: the narrow interface a SessionRuntime sees.
//
// One context per shard, binding the services a session touches while it
// streams.  Raw pointers, non-owning: the Shard outlives every session it
// runs.
#pragma once

#include <unordered_set>
#include <vector>

#include "cdn/ats_server.h"
#include "cdn/fleet.h"
#include "cdn/idealization.h"
#include "engine/ground_truth.h"
#include "engine/warmup.h"
#include "faults/fault_injector.h"
#include "net/prefix.h"
#include "net/tcp_model.h"
#include "telemetry/collector.h"
#include "workload/catalog.h"
#include "workload/scenario.h"

namespace vstream::engine {

struct RunContext {
  const workload::Scenario* scenario = nullptr;
  const workload::VideoCatalog* catalog = nullptr;
  cdn::Fleet* fleet = nullptr;
  telemetry::Collector* collector = nullptr;
  GroundTruth* ground_truth = nullptr;
  /// Null until faults are armed.
  const faults::FaultInjector* injector = nullptr;
  /// Null or empty when no prefixes are flagged (§4.2-1 a-priori hints).
  const std::unordered_set<net::Prefix24>* bad_prefixes = nullptr;
  /// Counterfactual replay: non-null idealizes exactly one subsystem for
  /// every session in this domain (see cdn/idealization.h).  Null — and a
  /// kNone policy — is the bit-exact factual run.
  const cdn::IdealizationPolicy* idealization = nullptr;

  /// Shared immutable warm cache content (required).  Every serve reads it
  /// through the session's own overlay (AtsServer::serve), so outcomes are
  /// a pure function of (warm state, the session's own history, the
  /// session's RNG substream) — what makes sharded output invariant to
  /// the shard count.
  const WarmArchive* warm_archive = nullptr;
  /// Per-server serve counters, indexed pop * servers_per_pop + server
  /// (required).
  std::vector<cdn::ServerStats>* server_stats = nullptr;

  /// Execution-domain scratch for per-round TCP samples.  Sessions within
  /// a domain step strictly sequentially (one event loop), so one buffer,
  /// cleared per chunk, serves them all — its capacity is reused instead
  /// of reallocated on every chunk transfer.  Null falls back to a local
  /// vector (tests that build a bare RunContext).
  std::vector<net::RoundSample>* round_scratch = nullptr;
};

}  // namespace vstream::engine
