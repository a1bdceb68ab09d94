// Simulator ground truth for validation (never fed to analyses).
//
// Every shard of the sharded engine accounts into its own instance, and
// the per-shard instances are merged after the run.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "faults/fault_schedule.h"

namespace vstream::engine {

struct GroundTruth {
  /// session -> chunk ids whose bytes were held by the download stack.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> ds_anomalies;
  /// sessions that really sat behind a proxy.
  std::unordered_map<std::uint64_t, bool> proxied;
  std::uint64_t total_chunks = 0;
  std::uint64_t total_ds_anomalies = 0;
  /// Sessions cut short because a stall drove the viewer away (only with
  /// scenario.stall_abandonment_probability > 0).
  std::uint64_t stall_abandonments = 0;

  // -- failure injection (what really happened, for scoring detectors) --

  /// The injected fault epochs, verbatim (empty without fault injection).
  std::vector<faults::FaultEvent> injected_faults;
  std::uint64_t request_timeouts = 0;   ///< attempts abandoned at timeout
  std::uint64_t chunk_retries = 0;      ///< re-issued chunk requests
  std::uint64_t failover_events = 0;    ///< mid-session server switches
  std::uint64_t failed_sessions = 0;    ///< abandoned: recovery exhausted

  /// Fold another shard's accounting into this one.  Session-keyed maps are
  /// disjoint across shards (each session runs on exactly one shard);
  /// injected_faults is identical on every shard and must be set by the
  /// caller once, so merge() leaves it alone.
  void merge(GroundTruth&& other);
};

}  // namespace vstream::engine
