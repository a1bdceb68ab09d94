// ShardedRunner: deterministic parallel execution of a session set.
//
// Sessions are split across N *logical* shards, each shard's sessions run
// on a private replica stack (see Shard), and the outputs come back in
// canonical session-id order.  Because session outcomes are
// session-isolated (cdn::AtsServer::serve) and fault epochs are pure
// functions of simulated time, the output is bit-identical for ANY shard
// count and any split — shards only change wall-clock time, never
// results.  Memory mode splits the id-sorted sessions into contiguous
// ranges and streams the finished batches, in order, into one output;
// spill mode partitions by id modulo the shard count, one file per shard,
// and merges.
//
// Logical shards vs physical threads: the shard count defines the
// determinism partition; the *thread* count (ExecOptions.threads /
// VSTREAM_THREADS) defines how many OS threads execute the shards' work
// on the runtime::Executor.  The two are independent knobs — neither
// changes a single output bit (see DESIGN.md "Execution model").
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <unordered_set>
#include <vector>

#include "engine/admission.h"
#include "engine/shard.h"
#include "runtime/executor.h"

namespace vstream::engine {

/// Crash-safe execution config (see engine/checkpoint.h for the model).
/// Requires spill mode: record durability comes from the spill files; a
/// checkpointed in-memory dataset would be lost with the process anyway.
struct CheckpointConfig {
  /// Directory for the per-shard shard-<i>.vckpt sidecars (must exist).
  std::filesystem::path dir;
  /// Resume from existing sidecars.  Missing/corrupt sidecars restart
  /// their shard from zero; a sidecar from a different run configuration
  /// (fingerprint mismatch) throws std::runtime_error.
  bool resume = false;
  /// Sessions per shard between checkpoints (the batch size).
  std::size_t interval = 1000;
  /// run_fingerprint() of the admitted schedule, for resume validation.
  std::uint64_t fingerprint = 0;
  /// Test/chaos hook: stop each shard after this many batches even if work
  /// remains (result.completed turns false).  0 runs to completion.
  std::size_t stop_after_batches = 0;
};

/// Physical execution config: how many OS threads run the logical
/// shards' work.
struct ExecOptions {
  /// Physical worker threads; 0 resolves via
  /// runtime::resolve_thread_count (VSTREAM_THREADS environment
  /// variable, else hardware concurrency).  Never affects results.
  std::size_t threads = 0;
  /// Spill format version pin: 0 or telemetry::kSpillVersionDefault (the
  /// only format); run_sharded throws std::invalid_argument for anything
  /// else.  Selects nothing.
  std::uint32_t spill_format = 0;
};

/// Memory-mode batch granularity: with more than one worker, each shard's
/// contiguous range is split into batches of this many sessions, each an
/// independent executor task on a fresh replica (batching is just finer
/// sharding — bit-identical, proven by the checkpoint-equivalence tests).
/// Small enough that the batches in flight, and the finished ones waiting
/// for an earlier batch, hold little memory, large enough that replica
/// construction stays negligible next to the sessions it serves.  One
/// worker runs one task per shard (no replica churn when nothing can
/// steal).
inline constexpr std::size_t kDefaultMemoryBatch = 64;

/// Deterministic partition: session id modulo shard_count, the spill
/// mode's shard-to-file map.  Within each shard, generation order
/// (ascending ids / nondecreasing start times) is preserved.
///
/// Worst-case skew: ids strided by a multiple of shard_count (or
/// clustered in one residue class) land every session in ONE shard —
/// id-modulo is the canonical partition for determinism, not a balanced
/// one.  Memory mode does not use it: its contiguous ranges are balanced
/// by count whatever the ids (see the skew tests in
/// tests/engine/merge_test.cc).
std::vector<std::vector<AdmittedSession>> partition_sessions(
    const std::vector<AdmittedSession>& admitted, std::size_t shard_count);

/// Merge shard outputs into one dataset/accounting, re-ordering every
/// record stream into ascending session id (stable within a session, i.e.
/// chunk/time order).  The result is a pure function of the per-session
/// records and therefore independent of the shard count.
///
/// Each stream is run-sorted: every part's maximal runs of equal session
/// id are collected into a run table (about one entry per session, since
/// a part holds a session's records contiguously), the table is
/// stable-sorted by session id, and a prefix sum over the run lengths
/// gives each run its offset in the pre-sized output.  The records are
/// then moved run by run and each part's vectors are freed as soon as
/// they are moved.  The output equals std::stable_sort of the
/// concatenated parts for any input (a session split across parts,
/// interleaved ids, sparse ids), with no fallback path.
///
/// `executor` with more than one worker runs the moves as one task per
/// part: the tasks write disjoint ranges of the outputs and each frees
/// only its own part.  Null (or one worker) moves the parts serially;
/// the bytes are identical either way.
ShardResult merge_shard_results(std::vector<ShardResult> parts,
                                runtime::Executor* executor = nullptr);

/// Run `admitted` across `shard_count` logical shards on a work-stealing
/// pool of `exec->threads` physical workers (null `exec` resolves
/// ExecOptions{} — VSTREAM_THREADS, else hardware concurrency; one worker
/// runs everything inline on the calling thread).  All reference
/// parameters are read-only for the duration; `faults` and
/// `bad_prefixes` may be null.  `stats` non-null receives the executor's
/// task/steal accounting for the main run.  Session ids must be unique.
///
/// Task granularity per telemetry mode:
///   memory      the sessions, sorted by id, are cut into `shard_count`
///               balanced contiguous ranges; one task per
///               kDefaultMemoryBatch sessions of a range (one per range
///               with one worker), each on a fresh replica.  Finished
///               batches are handed over in batch order: each is
///               run-sorted onto the end of one pre-reserved output and
///               freed.  The batches cover ascending id ranges, so the
///               output is canonical with no global merge, and each
///               record is written into its final buffer once;
///   spill       one task per id-mod shard: a shard owns its spill file,
///               so the file is single-writer and the file set stays in
///               shard order for the canonical merge;
///   checkpoint  one task per shard: the sidecar commit sequence within
///               a shard is inherently ordered (batches run sequentially
///               *inside* the task, exactly as before).
///
/// `spill_dir` selects the telemetry storage model: null materializes
/// the canonical Dataset in RAM; otherwise each shard streams its
/// completed sessions to <spill_dir>/shard-<i>.vspill through a
/// telemetry::SpillSink, the merged dataset comes back empty, and the
/// result's spill_files lists the per-shard files in shard order.  The
/// directory must already exist.  Either way the output equals
/// merge_shard_results over the partition_sessions parts, byte for byte.
///
/// `checkpoint` non-null enables crash-safe batched execution (spill mode
/// only — throws std::invalid_argument without `spill_dir`): each shard
/// runs its partition in `checkpoint->interval`-session batches, flushing
/// its spill file and writing a shard-<i>.vckpt sidecar after each batch;
/// with `checkpoint->resume` the shard restarts from its last committed
/// sidecar, truncating the spill file's uncommitted tail.  The merged
/// output is bit-identical to an uninterrupted, checkpoint-free run.
ShardResult run_sharded(const workload::Scenario& scenario,
                        const workload::VideoCatalog& catalog,
                        const WarmArchive& warm,
                        const faults::FaultSchedule* faults,
                        const std::unordered_set<net::Prefix24>* bad_prefixes,
                        const std::vector<AdmittedSession>& admitted,
                        std::size_t shard_count,
                        const std::filesystem::path* spill_dir = nullptr,
                        const CheckpointConfig* checkpoint = nullptr,
                        const ExecOptions* exec = nullptr,
                        runtime::ParallelStats* stats = nullptr);

}  // namespace vstream::engine
