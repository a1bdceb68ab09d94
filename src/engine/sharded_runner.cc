#include "engine/sharded_runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/checkpoint.h"
#include "runtime/huge_pages.h"
#include "sim/host_error.h"
#include "telemetry/spill_sink.h"

namespace vstream::engine {

namespace {

/// A maximal run of one session's records inside one part's stream.
struct SessionRun {
  std::uint64_t session = 0;
  std::size_t begin = 0;
  std::size_t len = 0;
};

/// Where one record stream's runs go in the merged stream.  `runs` lists
/// every part's runs in part order, part p's in [first[p], first[p + 1]);
/// run r lands at offset dest[r].
struct StreamPlan {
  std::vector<SessionRun> runs;
  std::vector<std::size_t> first;
  std::vector<std::size_t> dest;
};

/// Append the maximal runs of equal session id in `records` to `runs`.
template <typename Record>
void collect_runs(const std::vector<Record>& records,
                  std::vector<SessionRun>& runs) {
  for (std::size_t i = 0; i < records.size();) {
    const std::uint64_t session = records[i].session_id;
    std::size_t end = i + 1;
    while (end < records.size() && records[end].session_id == session) {
      ++end;
    }
    runs.push_back({session, i, end - i});
    i = end;
  }
}

/// The indices of `runs`, stable-sorted by session id.
std::vector<std::size_t> sorted_run_order(const std::vector<SessionRun>& runs) {
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&runs](std::size_t a, std::size_t b) {
                     return runs[a].session < runs[b].session;
                   });
  return order;
}

/// Run-sort plan for one stream.  The runs are listed in concatenation
/// order and a run's records share one key, so stable-sorting the run
/// table by session id and laying the runs out back to back gives
/// exactly std::stable_sort of the concatenated records — for any input:
/// a session split across parts keeps part order, ids interleaved within
/// a part keep their positions, and ids need not be dense.  The table has
/// about one entry per session, not per record.
template <typename Record>
StreamPlan plan_stream(const std::vector<ShardResult>& parts,
                       std::vector<Record> telemetry::Dataset::*member) {
  StreamPlan plan;
  plan.first.reserve(parts.size() + 1);
  for (const ShardResult& part : parts) {
    plan.first.push_back(plan.runs.size());
    collect_runs(part.dataset.*member, plan.runs);
  }
  plan.first.push_back(plan.runs.size());

  plan.dest.resize(plan.runs.size());
  std::size_t offset = 0;
  for (const std::size_t r : sorted_run_order(plan.runs)) {
    plan.dest[r] = offset;
    offset += plan.runs[r].len;
  }
  return plan;
}

/// Run-sort `from` onto the end of `into`, then free `from`: the same
/// order as std::stable_sort of `from` by session id.  Each record is
/// move-constructed once, straight into `into`'s spare capacity.
template <typename Record>
void append_run_sorted(std::vector<Record>& from, std::vector<Record>& into) {
  std::vector<SessionRun> runs;
  collect_runs(from, runs);
  for (const std::size_t r : sorted_run_order(runs)) {
    const auto begin = from.begin() + static_cast<std::ptrdiff_t>(runs[r].begin);
    into.insert(into.end(), std::make_move_iterator(begin),
                std::make_move_iterator(
                    begin + static_cast<std::ptrdiff_t>(runs[r].len)));
  }
  std::vector<Record>().swap(from);
}

/// Move part `part`'s runs of one stream to their planned offsets in
/// `into`, then free the part's vector.
template <typename Record>
void move_runs(std::vector<Record>& from, const StreamPlan& plan,
               std::size_t part, std::vector<Record>& into) {
  for (std::size_t r = plan.first[part]; r < plan.first[part + 1]; ++r) {
    const SessionRun& run = plan.runs[r];
    std::move(from.data() + run.begin, from.data() + run.begin + run.len,
              into.data() + plan.dest[r]);
  }
  std::vector<Record>().swap(from);
}

/// Fold one part's accounting into `merged`: ground truth and server
/// stats are element-wise sums, spill files keep part order.  Parts may
/// disagree on server_stats size (an empty shard that never built a fleet
/// reports none) — size to the largest part seen, not the first, so a
/// leading empty shard cannot truncate the fleet counters.
void fold_accounting(ShardResult& merged, ShardResult& part) {
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

/// Run `body(i)` for every i in [0, count): on `executor` when it has
/// more than one worker, else serially in index order.
void run_tasks(runtime::Executor* executor, std::size_t count,
               const std::function<void(std::size_t)>& body) {
  if (executor != nullptr && executor->workers() > 1) {
    executor->parallel_for(count, body, nullptr, "merge");
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
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

ShardResult merge_shard_results(std::vector<ShardResult> parts,
                                runtime::Executor* executor) {
  ShardResult merged;

  // Accounting first, serially in part order.
  for (ShardResult& part : parts) fold_accounting(merged, part);

  // Run-sort the five record streams.  A plan walks only session ids and
  // sizing touches only the new output, so the five walks and the five
  // resizes are ten independent tasks; the longest, the first touch of
  // the tcp_snapshots output, runs beside the walks.  Then one task per
  // part moves its runs: a part's runs land in disjoint ranges of the
  // outputs, so tasks share nothing mutable, and the output order is the
  // plans', never the tasks' timing.
  using telemetry::Dataset;
  Dataset& into = merged.dataset;
  std::array<StreamPlan, 5> plans;
  const auto size = [&](auto member) {
    std::size_t total = 0;
    for (const ShardResult& part : parts) {
      total += (part.dataset.*member).size();
    }
    (into.*member).resize(total);
  };
  const std::array<std::function<void()>, 10> prepare = {
      [&] { plans[0] = plan_stream(parts, &Dataset::player_sessions); },
      [&] { plans[1] = plan_stream(parts, &Dataset::cdn_sessions); },
      [&] { plans[2] = plan_stream(parts, &Dataset::player_chunks); },
      [&] { plans[3] = plan_stream(parts, &Dataset::cdn_chunks); },
      [&] { plans[4] = plan_stream(parts, &Dataset::tcp_snapshots); },
      [&] { size(&Dataset::player_sessions); },
      [&] { size(&Dataset::cdn_sessions); },
      [&] { size(&Dataset::player_chunks); },
      [&] { size(&Dataset::cdn_chunks); },
      [&] { size(&Dataset::tcp_snapshots); },
  };
  run_tasks(executor, prepare.size(), [&](std::size_t i) { prepare[i](); });
  run_tasks(executor, parts.size(), [&](std::size_t p) {
    Dataset& from = parts[p].dataset;
    move_runs(from.player_sessions, plans[0], p, into.player_sessions);
    move_runs(from.cdn_sessions, plans[1], p, into.cdn_sessions);
    move_runs(from.player_chunks, plans[2], p, into.player_chunks);
    move_runs(from.cdn_chunks, plans[3], p, into.cdn_chunks);
    move_runs(from.tcp_snapshots, plans[4], p, into.tcp_snapshots);
  });
  return merged;
}

namespace {

/// Memory mode as one ordered stream (see run_sharded): contiguous id
/// ranges run as batches, and each finished batch is run-sorted onto the
/// end of one pre-reserved output in batch order.
ShardResult run_in_memory(const workload::Scenario& scenario,
                          const workload::VideoCatalog& catalog,
                          const WarmArchive& warm,
                          const faults::FaultSchedule* faults,
                          const std::unordered_set<net::Prefix24>* bad_prefixes,
                          const std::vector<AdmittedSession>& admitted,
                          std::size_t shard_count,
                          runtime::Executor& executor,
                          runtime::ParallelStats* stats) {
  // Contiguous ranges concatenate into canonical order only if ids
  // ascend; admit_sessions' order does, a caller's list may not.
  const auto by_id = [](const AdmittedSession& a, const AdmittedSession& b) {
    return a.spec.session_id < b.spec.session_id;
  };
  std::vector<AdmittedSession> sorted;
  std::span<const AdmittedSession> sessions(admitted);
  if (!std::is_sorted(admitted.begin(), admitted.end(), by_id)) {
    sorted = admitted;
    std::stable_sort(sorted.begin(), sorted.end(), by_id);
    sessions = sorted;
  }

  // shard_count balanced ranges, so the range sizes are the id-mod shard
  // sizes of dense ids; with more than one worker each range is cut into
  // kDefaultMemoryBatch-session batches.  An empty range keeps one empty
  // batch, so the task count is the spill partition's.
  struct Batch {
    std::size_t begin;
    std::size_t count;
  };
  const std::size_t n = sessions.size();
  const std::size_t ranges = std::max<std::size_t>(1, shard_count);
  const std::size_t batch_size =
      executor.workers() > 1 ? kDefaultMemoryBatch : 0;
  std::vector<Batch> batches;
  batches.reserve(ranges);
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::size_t end = (r + 1) * n / ranges;
    std::size_t offset = r * n / ranges;
    do {
      const std::size_t count =
          batch_size == 0 ? end - offset : std::min(batch_size, end - offset);
      batches.push_back({offset, count});
      offset += count;
    } while (offset < end);
  }

  // Reserve the output once.  Capacity that is never touched costs no
  // memory, so the snapshot estimate may run high.
  ShardResult merged;
  telemetry::Dataset& out = merged.dataset;
  std::size_t chunks = 0;
  for (const AdmittedSession& session : sessions) {
    chunks += session.spec.chunk_count;
  }
  runtime::reserve_huge(out.player_sessions, n);
  runtime::reserve_huge(out.cdn_sessions, n);
  runtime::reserve_huge(out.player_chunks, chunks);
  runtime::reserve_huge(out.cdn_chunks, chunks);
  runtime::reserve_huge(
      out.tcp_snapshots,
      telemetry::expected_snapshots(chunks, catalog.chunk_duration_s() * 1000.0,
                                    scenario.tcp_sample_interval_ms));

  // In-order handover.  A finished batch parks in its slot.  The task
  // that finishes batch t, unless another task is draining, appends the
  // ready batches from `next` on, in batch order, freeing each so later
  // batches reuse its pages — but none past t until every batch has
  // finished.  The workers ahead of the oldest batch thus do the
  // copying, and the one running it does not fall further behind (the
  // drainer's own next batch would otherwise become the oldest again,
  // and the backlog would grow with the run).  The output order is the
  // batch order, never the timing.
  std::mutex mu;
  std::vector<ShardResult> done(batches.size());
  std::vector<char> ready(batches.size(), 0);
  std::size_t next = 0;
  std::size_t finished = 0;
  bool draining = false;
  executor.parallel_for(
      batches.size(),
      [&](std::size_t t) {
        ShardResult result;
        {
          Shard shard(scenario, catalog, warm, faults, bad_prefixes);
          result =
              shard.run(sessions.subspan(batches[t].begin, batches[t].count));
        }
        std::unique_lock<std::mutex> lock(mu);
        done[t] = std::move(result);
        ready[t] = 1;
        ++finished;
        if (draining) return;
        draining = true;
        while (next < batches.size() && ready[next] != 0 &&
               (next <= t || finished == batches.size())) {
          ShardResult batch = std::move(done[next]);
          lock.unlock();
          fold_accounting(merged, batch);
          telemetry::for_each_stream(
              [](std::size_t, auto& from, auto& into) {
                append_run_sorted(from, into);
              },
              batch.dataset, out);
          lock.lock();
          ++next;
        }
        draining = false;
      },
      stats, "shard");
  return merged;
}

}  // namespace

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
  if (spill_dir == nullptr) {
    return run_in_memory(scenario, catalog, warm, faults, bad_prefixes,
                         admitted, shard_count, executor, stats);
  }

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

  // Spill mode: task = logical shard.  A shard owns its spill file (single
  // writer, and the file set keeps shard order for the canonical merge).
  // Without checkpointing the partition runs as one batch.  With it, the
  // partition runs in sequential batches on fresh Shard replicas
  // (batching is just a finer sharding — see engine/checkpoint.h), and
  // every batch flushes the spill file and writes a sidecar.
  const auto run_spilled = [&](std::size_t i) {
    const std::span<const AdmittedSession> part(parts[i]);
    const std::filesystem::path spill_file =
        *spill_dir / ("shard-" + std::to_string(i) + ".vspill");
    const std::filesystem::path ckpt_file =
        checkpoint == nullptr
            ? std::filesystem::path()
            : checkpoint->dir / ("shard-" + std::to_string(i) + ".vckpt");

    std::size_t next = 0;
    GroundTruth ground_truth;
    std::vector<cdn::ServerStats> server_stats;
    std::unique_ptr<telemetry::SpillSink> sink;
    if (checkpoint != nullptr && checkpoint->resume) {
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

    const std::size_t interval =
        checkpoint != nullptr ? std::max<std::size_t>(1, checkpoint->interval)
                              : part.size();
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
      if (checkpoint == nullptr) continue;

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
        results[i].completed = false;
        break;
      }
    }
    if (results[i].completed) sink->finish();
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
  executor.parallel_for(parts.size(), run_spilled, stats, "shard");
  return merge_shard_results(std::move(results),
                             executor.workers() > 1 ? &executor : nullptr);
}

}  // namespace vstream::engine
