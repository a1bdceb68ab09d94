// ShardedRunner: deterministic parallel execution of a session set.
//
// The sessions, sorted by id, are cut into N *logical* shards — balanced
// contiguous id ranges — and each range into batches; every batch runs on
// a private replica stack (see Shard), and the finished batches are
// handed over in batch order to one output.  Because session outcomes
// are session-isolated (cdn::AtsServer::serve) and fault epochs are pure
// functions of simulated time, the output is bit-identical for ANY shard
// count and any split — shards only change wall-clock time, never
// results.  The output is either an in-memory Dataset or the run's one
// spill file, written in canonical order; checkpointing adds durable cuts
// to the same handover.
//
// Logical shards vs physical threads: the shard count defines the
// determinism partition; the *thread* count (ExecOptions.threads /
// VSTREAM_THREADS) defines how many OS threads execute the batches on
// the runtime::Executor.  The two are independent knobs — neither
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
/// Requires spill mode: record durability comes from the spill file; a
/// checkpointed in-memory dataset would be lost with the process anyway.
struct CheckpointConfig {
  /// Directory for the run.vckpt sidecar (must exist).
  std::filesystem::path dir;
  /// Resume from an existing sidecar.  A missing, corrupt or old-format
  /// sidecar restarts the run from zero; a sidecar from a different run
  /// configuration (fingerprint mismatch) throws std::runtime_error.
  bool resume = false;
  /// Sessions between checkpoints: the handover commits at the first
  /// batch boundary past every multiple of this, and at the end.
  std::size_t interval = 1000;
  /// run_fingerprint() of the admitted schedule, for resume validation.
  std::uint64_t fingerprint = 0;
  /// Test/chaos hook: stop the handover after this many commits even if
  /// work remains (result.completed turns false).  0 runs to completion.
  std::size_t stop_after_checkpoints = 0;
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

/// Batch granularity: each shard's contiguous range is split into batches
/// of at most this many sessions, each an independent executor task on a
/// fresh replica (batching is just finer sharding — bit-identical, proven
/// by the checkpoint-equivalence tests).  Small enough that the batches
/// in flight, and the finished ones waiting for an earlier batch, hold
/// little memory (records in memory mode, encoded blocks in spill mode),
/// large enough that replica construction stays negligible next to the
/// sessions it serves.
inline constexpr std::size_t kDefaultMemoryBatch = 64;

/// Id-modulo partition: session id modulo shard_count.  Within each
/// shard, generation order (ascending ids / nondecreasing start times) is
/// preserved.  run_sharded does not use it; it stays only as the tests'
/// reference partition and for perfbench's traced path, which times
/// shard work and merge apart.
///
/// Worst-case skew: ids strided by a multiple of shard_count (or
/// clustered in one residue class) land every session in ONE shard —
/// id-modulo is canonical, not balanced.  run_sharded's contiguous ranges
/// are balanced by count whatever the ids (see the skew tests in
/// tests/engine/merge_test.cc).
std::vector<std::vector<AdmittedSession>> partition_sessions(
    const std::vector<AdmittedSession>& admitted, std::size_t shard_count);

/// Merge shard outputs into one dataset/accounting, re-ordering every
/// record stream into ascending session id (stable within a session, i.e.
/// chunk/time order).  The result is a pure function of the per-session
/// records and therefore independent of the shard count.  run_sharded
/// does not use it; it stays only as the tests' reference merge and for
/// perfbench's traced path.
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
/// One execution path for every telemetry mode.  The sessions, sorted by
/// id, are cut into `shard_count` balanced contiguous ranges and each
/// range into batches of at most kDefaultMemoryBatch sessions (an empty
/// range keeps one empty batch); each batch is one task on a fresh
/// replica, and the executor deals the tasks round-robin.  Finished
/// batches are handed over in batch order.  The batches cover ascending
/// id ranges, so the output is canonical with no global merge:
///   memory      each batch is run-sorted onto the end of one
///               pre-reserved Dataset and freed, so each record is
///               written into its final buffer once;
///   spill       the task encodes each session's block into memory
///               (telemetry::SpillSink) and sorts the batch's blocks by
///               session id; the handover appends them, each with its
///               commit frame, to <spill_dir>/run.vspill through one
///               SpillWriter.  The file is in canonical order and its
///               bytes depend on neither the shard nor the thread count;
///               the merged dataset comes back empty, and spill_files
///               names the file.  The directory must already exist;
///   checkpoint  spill mode plus commits: at the first batch boundary
///               past every `checkpoint->interval` sessions, and at the
///               end, the handover flushes the spill file and replaces
///               <checkpoint->dir>/run.vckpt with the watermark (sessions
///               handed over, file offset and block count, folded
///               accounting).  With `checkpoint->resume` the run
///               truncates the spill file to the sidecar's offset and
///               restarts at its watermark; batches below it are not
///               run.  Throws std::invalid_argument without `spill_dir`.
/// Either way the records equal merge_shard_results over the
/// partition_sessions parts, byte for byte, and a resumed run's equal an
/// uninterrupted one's.
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
