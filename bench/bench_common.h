// Shared preamble for the figure/table benches: run the paper-calibrated
// workload once through the layered engine and hand out the joined dataset.
//
// Every bench prints greppable `series`/`bins`/`metric` lines (see
// core/report.h) plus `PAPER:` reference lines recording what the original
// figure/table reports, so EXPERIMENTS.md can track paper-vs-measured.
//
// Environment knobs (validated strictly; invalid values abort the bench
// with a message rather than silently falling back):
//   VSTREAM_BENCH_SESSIONS  session count for the default workload
//   VSTREAM_SHARDS          engine worker count (see engine/engine.h)
#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis/aggregate.h"
#include "analysis/detectors.h"
#include "analysis/stats.h"
#include "core/report.h"
#include "engine/engine.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"

namespace vstream::bench {

/// One fully simulated and joined run.  `joined` holds pointers into
/// `result.dataset`, so keep the struct alive while using it.
struct BenchRun {
  workload::Scenario scenario;
  engine::RunResult result;
  telemetry::ProxyFilterResult proxies;
  telemetry::JoinedDataset joined;

  const telemetry::Dataset& dataset() const { return result.dataset; }
  const workload::VideoCatalog& catalog() const { return *result.catalog; }
  const engine::GroundTruth& ground_truth() const {
    return result.ground_truth;
  }
  /// Merged per-server serve counters, indexed pop * servers_per_pop +
  /// server (the engine's replacement for reading live fleet counters).
  const std::vector<cdn::ServerStats>& server_stats() const {
    return result.server_stats;
  }
};

/// Session count for the default workload; override with the
/// VSTREAM_BENCH_SESSIONS environment variable.  An unparsable or
/// non-positive value prints a diagnostic and exits with status 2.
std::size_t bench_session_count(std::size_t fallback = 2'500);

/// Master seed for the default workload.
inline constexpr std::uint64_t kBenchSeed = 20160516;

/// Run the paper-calibrated scenario end to end (warm caches, all
/// sessions, proxy filtering, join) on the sharded engine.
BenchRun run_paper_workload(std::size_t sessions = bench_session_count(),
                            std::uint64_t seed = kBenchSeed);

}  // namespace vstream::bench
