#include "engine/sharded_runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/checkpoint.h"
#include "sim/host_error.h"
#include "telemetry/spill_sink.h"

namespace vstream::engine {

namespace {

/// Stable-sort a record stream by session id.  Stability preserves each
/// session's internal record order (chunks ascend, snapshots ascend in
/// time), and since every session lives wholly inside one shard, the
/// sorted stream depends only on per-session content — not on the shard
/// count or the interleaving.
template <typename Record>
void canonicalize(std::vector<Record>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.session_id < b.session_id;
                   });
}

template <typename Record>
void append(std::vector<Record>& into, std::vector<Record>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

}  // namespace

std::vector<std::vector<AdmittedSession>> partition_sessions(
    const std::vector<AdmittedSession>& admitted, std::size_t shard_count) {
  std::vector<std::vector<AdmittedSession>> parts(std::max<std::size_t>(
      1, shard_count));
  for (const AdmittedSession& session : admitted) {
    parts[session.spec.session_id % parts.size()].push_back(session);
  }
  return parts;
}

ShardResult merge_shard_results(std::vector<ShardResult> parts) {
  return merge_shard_results(std::move(parts), nullptr);
}

ShardResult merge_shard_results(std::vector<ShardResult> parts,
                                runtime::Executor* executor) {
  ShardResult merged;

  // Accounting first, serially in part order: ground truth and server
  // stats are element-wise sums, spill files must keep shard order.
  // Parts may disagree on server_stats size (an empty shard that never
  // built a fleet reports none) — size to the largest part seen, not the
  // first, so a leading empty shard cannot truncate the fleet counters.
  for (ShardResult& part : parts) {
    merged.ground_truth.merge(std::move(part.ground_truth));
    merged.completed = merged.completed && part.completed;
    merged.checkpoints_degraded =
        merged.checkpoints_degraded || part.checkpoints_degraded;
    for (std::filesystem::path& file : part.spill_files) {
      merged.spill_files.push_back(std::move(file));
    }
    if (merged.server_stats.size() < part.server_stats.size()) {
      merged.server_stats.resize(part.server_stats.size());
    }
    for (std::size_t i = 0; i < part.server_stats.size(); ++i) {
      merged.server_stats[i] += part.server_stats[i];
    }
  }

  // The five record streams are disjoint dataset members, so their
  // append-in-part-order + canonical sort runs as five independent
  // tasks.  Each task reads only its own member of every part; output
  // order is fixed by part order + session id, never by task timing.
  const auto merge_stream = [&parts, &merged](auto member) {
    auto& into = merged.dataset.*member;
    std::size_t total = 0;
    for (const ShardResult& part : parts) {
      total += (part.dataset.*member).size();
    }
    into.reserve(total);
    for (ShardResult& part : parts) {
      append(into, std::move(part.dataset.*member));
    }
    canonicalize(into);
  };
  const std::array<std::function<void()>, 5> streams = {
      [&] { merge_stream(&telemetry::Dataset::player_sessions); },
      [&] { merge_stream(&telemetry::Dataset::cdn_sessions); },
      [&] { merge_stream(&telemetry::Dataset::player_chunks); },
      [&] { merge_stream(&telemetry::Dataset::cdn_chunks); },
      [&] { merge_stream(&telemetry::Dataset::tcp_snapshots); },
  };
  if (executor != nullptr && executor->workers() > 1) {
    executor->parallel_for(streams.size(),
                           [&](std::size_t i) { streams[i](); }, nullptr,
                           "merge");
  } else {
    for (const auto& stream : streams) stream();
  }
  return merged;
}

ShardResult run_sharded(const workload::Scenario& scenario,
                        const workload::VideoCatalog& catalog,
                        const WarmArchive& warm,
                        const faults::FaultSchedule* faults,
                        const std::unordered_set<net::Prefix24>* bad_prefixes,
                        const std::vector<AdmittedSession>& admitted,
                        std::size_t shard_count,
                        const std::filesystem::path* spill_dir,
                        const CheckpointConfig* checkpoint,
                        const ExecOptions* exec,
                        runtime::ParallelStats* stats) {
  if (checkpoint != nullptr && spill_dir == nullptr) {
    throw std::invalid_argument(
        "run_sharded: checkpointing requires spill-mode telemetry");
  }
  const ExecOptions options = exec != nullptr ? *exec : ExecOptions{};
  if (options.spill_format != 0 &&
      options.spill_format != telemetry::kSpillVersionDefault) {
    throw std::invalid_argument("run_sharded: unsupported spill format " +
                                std::to_string(options.spill_format));
  }
  runtime::Executor executor(runtime::resolve_thread_count(options.threads));

  const std::vector<std::vector<AdmittedSession>> parts =
      partition_sessions(admitted, shard_count);
  std::vector<ShardResult> results(parts.size());

  // Degradation policy: a failed sidecar write (full disk, unwritable
  // dir, checkpoint.write/rename failpoint) must not kill a run whose
  // *data* path is healthy — the spill writes themselves still commit.
  // First failure warns once; the flag stops every shard's further
  // checkpoint attempts (the disk is shared, retrying per batch just
  // spams), and existing sidecars are left intact, so a crash after
  // degradation still resumes from the last good checkpoint.
  std::atomic<bool> checkpoints_disabled{false};

  // Checkpointed path: run the shard's partition in sequential batches on
  // fresh Shard replicas (batching is just a finer sharding — see
  // engine/checkpoint.h), flushing the spill file and writing a sidecar
  // after every batch.
  const auto run_checkpointed = [&](std::size_t i) {
    const std::span<const AdmittedSession> part(parts[i]);
    const std::filesystem::path spill_file =
        *spill_dir / ("shard-" + std::to_string(i) + ".vspill");
    const std::filesystem::path ckpt_file =
        checkpoint->dir / ("shard-" + std::to_string(i) + ".vckpt");

    std::size_t next = 0;
    GroundTruth ground_truth;
    std::vector<cdn::ServerStats> server_stats;
    std::unique_ptr<telemetry::SpillSink> sink;
    if (checkpoint->resume) {
      if (std::optional<ShardCheckpoint> saved = read_checkpoint(ckpt_file)) {
        if (saved->fingerprint != checkpoint->fingerprint ||
            saved->shard_index != i ||
            saved->shard_count != parts.size()) {
          throw std::runtime_error(
              "checkpoint: " + ckpt_file.string() +
              " belongs to a different run configuration (scenario, seed, "
              "shard count, or fault schedule changed) — refusing to mix");
        }
        next = std::min<std::size_t>(saved->next_index, part.size());
        ground_truth = std::move(saved->ground_truth);
        server_stats = std::move(saved->server_stats);
        sink = std::make_unique<telemetry::SpillSink>(
            spill_file, saved->spill_committed_bytes,
            saved->spill_blocks_written);
      }
    }
    if (sink == nullptr) {  // fresh start (no/invalid sidecar)
      next = 0;
      ground_truth = GroundTruth{};
      server_stats.clear();
      sink = std::make_unique<telemetry::SpillSink>(spill_file);
    }

    const std::size_t interval = std::max<std::size_t>(1, checkpoint->interval);
    std::size_t batches = 0;
    while (next < part.size()) {
      const std::size_t count = std::min(interval, part.size() - next);
      Shard shard(scenario, catalog, warm, faults, bad_prefixes, sink.get());
      ShardResult batch = shard.run(part.subspan(next, count));
      next += count;
      ground_truth.merge(std::move(batch.ground_truth));
      if (server_stats.empty()) {
        server_stats.resize(batch.server_stats.size());
      }
      for (std::size_t j = 0; j < batch.server_stats.size(); ++j) {
        server_stats[j] += batch.server_stats[j];
      }

      ShardCheckpoint cp;
      cp.fingerprint = checkpoint->fingerprint;
      cp.shard_index = i;
      cp.shard_count = parts.size();
      cp.next_index = next;
      // Sessions the batch never completed (the finish() epilogue would
      // normally write them) must be durable before the batch counts as
      // committed, and the flush must precede recording the offset: every
      // byte the sidecar claims is then in the OS page cache, which
      // survives SIGKILL.
      sink->flush_live();
      cp.spill_committed_bytes = sink->flush_committed();
      cp.spill_blocks_written = sink->blocks_written();
      cp.ground_truth = ground_truth;
      cp.server_stats = server_stats;
      if (!checkpoints_disabled.load(std::memory_order_relaxed)) {
        try {
          write_checkpoint(ckpt_file, cp);
        } catch (const sim::HostIoError& error) {
          if (!checkpoints_disabled.exchange(true)) {
            std::fprintf(
                stderr,
                "vstream: warning: %s — continuing without further "
                "checkpoints (run completes; crash-resume falls back to the "
                "last good sidecar)\n",
                error.what());
          }
        }
      }

      ++batches;
      if (checkpoint->stop_after_batches != 0 &&
          batches >= checkpoint->stop_after_batches && next < part.size()) {
        // Deliberate early stop (test/chaos hook): leave the spill file in
        // its committed state for a later resume.
        results[i].ground_truth = std::move(ground_truth);
        results[i].server_stats = std::move(server_stats);
        results[i].spill_files.push_back(spill_file);
        results[i].completed = false;
        results[i].checkpoints_degraded =
            checkpoints_disabled.load(std::memory_order_relaxed);
        return;
      }
    }
    sink->finish();
    results[i].ground_truth = std::move(ground_truth);
    results[i].server_stats = std::move(server_stats);
    results[i].spill_files.push_back(spill_file);
    results[i].checkpoints_degraded =
        checkpoints_disabled.load(std::memory_order_relaxed);
  };

  // Everything shared is read-only while tasks run; each task writes
  // only its own results slot, so the executor's placement decisions
  // (which worker, what steal order) are invisible in the output.  A
  // task's exception (resume mismatch, disk full, ...) is parked and
  // rethrown on the calling thread after the run drains.
  if (spill_dir != nullptr) {
    // Spill / checkpoint mode: task = logical shard.  A shard owns its
    // spill file (single writer, and the file set keeps shard order for
    // the canonical merge) and its sidecar commit sequence — the
    // checkpoint batches still run sequentially *inside* the task.
    executor.parallel_for(
        parts.size(),
        [&](std::size_t i) {
          if (checkpoint != nullptr) {
            run_checkpointed(i);
            return;
          }
          const std::filesystem::path file =
              *spill_dir / ("shard-" + std::to_string(i) + ".vspill");
          telemetry::SpillSink sink(file);
          Shard shard(scenario, catalog, warm, faults, bad_prefixes, &sink);
          results[i] = shard.run(parts[i]);
          sink.finish();
          results[i].spill_files.push_back(file);
        },
        stats, "shard");
  } else {
    // Memory mode: task = one memory_batch-session slice of a shard's
    // partition on a fresh replica.  Batching is just finer sharding
    // (bit-identical — the checkpoint-equivalence tests prove the same
    // split), and fine tasks are what lets work-stealing absorb a
    // skewed partition.  Batch list order (shard, then offset) is the
    // deterministic merge order; empty shards keep one empty task so
    // their server-stats shape still reaches the merge.
    struct MemoryBatch {
      std::size_t shard;
      std::size_t offset;
      std::size_t count;
    };
    const std::size_t batch_size =
        executor.workers() > 1
            ? std::max<std::size_t>(1, options.memory_batch != 0
                                           ? options.memory_batch
                                           : kDefaultMemoryBatch)
            : 0;  // one worker: one task per shard, no replica churn
    std::vector<MemoryBatch> batches;
    batches.reserve(parts.size());
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const std::size_t size = parts[s].size();
      std::size_t offset = 0;
      do {
        const std::size_t count =
            batch_size == 0 ? size : std::min(batch_size, size - offset);
        batches.push_back({s, offset, count});
        offset += count;
      } while (offset < size);
    }
    results.assign(batches.size(), ShardResult{});
    executor.parallel_for(
        batches.size(),
        [&](std::size_t t) {
          const MemoryBatch& batch = batches[t];
          Shard shard(scenario, catalog, warm, faults, bad_prefixes);
          results[t] = shard.run(
              std::span<const AdmittedSession>(parts[batch.shard])
                  .subspan(batch.offset, batch.count));
        },
        stats, "shard");
  }

  return merge_shard_results(std::move(results),
                             executor.workers() > 1 ? &executor : nullptr);
}

}  // namespace vstream::engine
