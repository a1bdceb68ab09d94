// The layered simulation engine: one entry point for every full run.
//
// Layering (each layer only sees the one below):
//
//   run_simulation()          build world, admit, run the ordered stream
//     ShardedRunner           id ranges in batches, handed over in order
//       Shard                 one worker's replica stack (fleet, queue, ...)
//         SessionRuntime      one session's chunk-by-chunk state machine
//
// Determinism guarantee: for a fixed (scenario, RunOptions) the returned
// dataset, ground truth and server stats are bit-identical for ANY shard
// count AND any physical thread count.  Admission is single-threaded
// (one master-RNG draw order), every session runs on its own RNG
// substream against session-isolated server state plus a shared
// immutable warm archive, fault epochs are pure functions of simulated
// time and are replayed identically inside every shard, and every record
// stream comes back in canonical session-id order (one ordered stream of
// contiguous id ranges, into memory or into one spill file).  Shards
// define the partition; threads (the work-stealing runtime's pool size)
// define the concurrency — both change wall-clock time only.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "engine/ground_truth.h"
#include "engine/shard.h"
#include "faults/fault_schedule.h"
#include "telemetry/collector.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"
#include "telemetry/spill_format.h"
#include "workload/scenario.h"

namespace vstream::engine {

struct RunOptions {
  /// Logical shard count — the determinism partition; 0 resolves via
  /// resolve_shard_count() (VSTREAM_SHARDS environment variable, else
  /// runtime::kDefaultLogicalShards).  Never changes results.
  std::size_t shards = 0;
  /// Physical worker threads executing the shards' work on the
  /// work-stealing runtime; 0 resolves via
  /// runtime::resolve_thread_count() (VSTREAM_THREADS environment
  /// variable, else hardware concurrency).  Never changes results —
  /// only wall-clock time.
  std::size_t threads = 0;
  /// Pre-populate caches to steady state (see build_warm_archive).
  bool warm_caches = true;
  double disk_fill = 0.92;
  bool universal_head = false;
  /// Fault epochs to replay during the run (empty: no injection).  Recorded
  /// in ground_truth.injected_faults.
  faults::FaultSchedule faults;
  /// Prefixes with known persistent problems (§4.2-1 a-priori ABR hints).
  std::unordered_set<net::Prefix24> bad_prefixes;
  /// Non-empty: stream telemetry to one spill file, run.vspill, in this
  /// directory (created if missing) instead of materializing the Dataset
  /// — RunResult.dataset comes back empty and RunResult.spill holds the
  /// file.  Empty: classic in-memory telemetry.
  std::string telemetry_spill_dir;
  /// Non-empty: crash-safe execution — commit checkpoints to one sidecar,
  /// run.vckpt, in this directory (created if missing).  Checkpointing
  /// implies spill mode; when no spill dir is configured the checkpoint
  /// directory doubles as the spill directory.  Empty: no checkpointing.
  std::string checkpoint_dir;
  /// Resume from the sidecar in the checkpoint directory.  A missing,
  /// corrupt or old-format sidecar restarts the run from zero; a sidecar
  /// from a different run configuration throws.  Requires checkpointing.
  bool resume = false;
  /// Sessions between checkpoints (a commit lands at the first batch
  /// boundary past each multiple, and at the end).  0: 1000.
  std::size_t checkpoint_interval = 0;
  /// Test/chaos hook: stop after this many checkpoint commits
  /// (RunResult.completed turns false; a resume finishes the run).
  std::size_t stop_after_checkpoints = 0;
};

/// A completed run: merged telemetry plus the world it was measured in.
struct RunResult {
  workload::Scenario scenario;
  /// Kept alive for downstream consumers (chunk duration, video metadata).
  std::shared_ptr<const workload::VideoCatalog> catalog;
  /// Empty when spilled() — the records live in `spill` instead.
  telemetry::Dataset dataset;
  GroundTruth ground_truth;
  /// Per-server serve counters, indexed pop * servers_per_pop + server.
  std::vector<cdn::ServerStats> server_stats;
  /// Logical shards the run was partitioned into.
  std::size_t shard_count = 0;
  /// Physical worker threads that executed it.
  std::size_t thread_count = 0;
  /// Spill mode only: the run's spill file.  spill.open() streams the
  /// run's sessions in canonical order; spill.load() materializes the
  /// canonical Dataset.
  telemetry::SpillSet spill;
  /// False only when a checkpointed run stopped early
  /// (RunOptions.stop_after_checkpoints): the spill file and sidecar hold
  /// a committed prefix; run again with resume=true to finish.
  bool completed = true;
  /// True when checkpoint sidecar writes failed mid-run and the run
  /// degraded to checkpoint-free execution: results are complete and
  /// correct, but a crash would resume from the last *good* sidecar
  /// (warned once on stderr when it happened).
  bool checkpoints_degraded = false;

  bool spilled() const { return !spill.empty(); }
};

/// A run plus the paper's §3 preprocessing (proxy filter + two-sided join).
/// `joined` and `proxies` point into `run.dataset`; the struct is movable
/// (element pointers survive vector moves) but must be kept alive while
/// the join is in use.
struct AnalyzedRun {
  RunResult run;
  telemetry::ProxyFilterResult proxies;
  telemetry::JoinedDataset joined;
};

/// Resolve the effective *logical* shard count: `requested` if nonzero,
/// else the VSTREAM_SHARDS environment variable (must parse as a
/// positive integer; anything else throws std::runtime_error), else
/// runtime::kDefaultLogicalShards — a fixed constant, deliberately NOT
/// hardware concurrency: the partition defines determinism and batch
/// granularity, the physical pool (resolve_thread_count) tracks the
/// hardware.
std::size_t resolve_shard_count(std::size_t requested = 0);

/// Build the world for `scenario`, admit all sessions, execute them across
/// the resolved shard count, and return the canonically merged result.
RunResult run_simulation(const workload::Scenario& scenario,
                         RunOptions options = {});

/// run_simulation() plus proxy detection and the player/CDN join — the
/// shared preamble of every figure bench and analysis tool.
AnalyzedRun run_and_analyze(const workload::Scenario& scenario,
                            RunOptions options = {});

}  // namespace vstream::engine
