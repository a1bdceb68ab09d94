// The checkpoint sidecar: the durable state a crashed run needs to restart
// from its last committed batch instead of from zero.
//
// A run executes its sessions, sorted by id, in batches on fresh Shard
// replicas, and hands the finished batches over in batch order (see
// sharded_runner.h).  Because session outcomes are session-isolated (own
// RNG substream, isolated serving, fault epochs pure functions of
// simulated time), batch boundaries never change any result.  With
// checkpointing the handover adds a durable cut at the first batch
// boundary past every `interval` sessions, and at the end of the run: it
// flushes the run's spill file and replaces this sidecar.
//
// Contents of the one sidecar (run.vckpt) — a watermark:
//   * the run fingerprint — a hash over the admitted session schedule,
//     the shard count, and the fault schedule.  Resuming against a
//     different scenario/seed/shard count is a user error and throws
//     (the fingerprints cannot match by construction);
//   * next_index — how many sessions, in id order, are handed over;
//   * the spill file's committed byte offset and block count (a resumed
//     SpillWriter truncates the uncommitted tail there);
//   * the folded GroundTruth and per-server ServerStats of the handed-over
//     batches (both merge commutatively with later batches).
//
// Admission, the warm archive, and per-session RNG substreams are pure
// functions of (scenario, seed) and are simply re-derived on resume —
// none of that state is stored.
//
// Durability model: the sidecar is written to <path>.tmp and renamed over
// the old one, so a crash mid-checkpoint leaves the previous one intact.
// The whole payload is CRC32C-guarded; a missing, torn, or corrupt
// sidecar, or one of another format version, reads as "no checkpoint"
// (the run restarts from zero — always safe, never wrong).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "cdn/ats_server.h"
#include "engine/admission.h"
#include "engine/ground_truth.h"
#include "faults/fault_schedule.h"

namespace vstream::engine {

/// A run's resumable state after its latest commit.
struct RunCheckpoint {
  std::uint64_t fingerprint = 0;  ///< run_fingerprint() of the owning run
  /// Sessions [0, next_index) of the id-sorted schedule are handed over.
  std::uint64_t next_index = 0;
  /// Spill file state at the cut (SpillWriter::flush_committed()).
  std::uint64_t spill_committed_bytes = 0;
  std::uint64_t spill_blocks_written = 0;
  /// Accounting folded over the handed-over batches.  injected_faults
  /// is not stored: the engine sets it once on the merged result.
  GroundTruth ground_truth;
  std::vector<cdn::ServerStats> server_stats;
};

/// Deterministic identity of a run for resume validation: hashes the
/// admitted schedule (id, rng seed, start time), the shard count, and the
/// fault schedule.  Any change to scenario, seed, shard count, or faults
/// changes the fingerprint.
std::uint64_t run_fingerprint(const std::vector<AdmittedSession>& admitted,
                              std::size_t shard_count,
                              const faults::FaultSchedule* faults);

/// Atomically replace the sidecar at `path` (tmp + rename).  Throws
/// sim::HostIoError on I/O failure (real or injected via the
/// checkpoint.write / checkpoint.rename failpoints); any torn tmp file
/// is removed and the previous sidecar at `path` is never touched, so
/// the runner's degradation policy (continue without checkpoints) keeps
/// a consistent resume point.
void write_checkpoint(const std::filesystem::path& path,
                      const RunCheckpoint& checkpoint);

/// Read a sidecar.  Missing, torn, or corrupt files and other format
/// versions return nullopt — the caller restarts from zero.  A
/// well-formed sidecar whose fingerprint disagrees with the resuming run
/// is NOT detected here; compare RunCheckpoint::fingerprint at the call
/// site.
std::optional<RunCheckpoint> read_checkpoint(
    const std::filesystem::path& path);

}  // namespace vstream::engine
