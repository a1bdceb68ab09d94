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

constexpr const char* kSpillFile = "run.vspill";  // in the spill directory
constexpr const char* kCheckpointFile = "run.vckpt";  // in the checkpoint one

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
/// stats are element-wise sums.  Parts may
/// disagree on server_stats size (an empty shard that never built a fleet
/// reports none) — size to the largest part seen, not the first, so a
/// leading empty shard cannot truncate the fleet counters.
void fold_accounting(ShardResult& merged, ShardResult& part) {
  merged.ground_truth.merge(std::move(part.ground_truth));
  merged.completed = merged.completed && part.completed;
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
  // sizes of dense ids, each cut into kDefaultMemoryBatch-session
  // batches.  An empty range keeps one empty batch, so a range is never
  // fewer than one task.  The layout depends on the session and shard
  // counts only, so a resumed run cuts the same batches.
  struct Batch {
    std::size_t begin;
    std::size_t count;
  };
  const std::size_t n = sessions.size();
  const std::size_t ranges = std::max<std::size_t>(1, shard_count);
  std::vector<Batch> batches;
  batches.reserve(ranges);
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::size_t end = (r + 1) * n / ranges;
    std::size_t offset = r * n / ranges;
    do {
      const std::size_t count = std::min(kDefaultMemoryBatch, end - offset);
      batches.push_back({offset, count});
      offset += count;
    } while (offset < end);
  }

  // The output: one Dataset reserved once (capacity never touched costs
  // no memory, so the snapshot estimate may run high), or the spill
  // file, resumed at the sidecar's watermark when there is one.
  ShardResult merged;
  std::unique_ptr<telemetry::SpillWriter> writer;
  std::size_t handed = 0;  // sessions handed over, in id order
  if (spill_dir == nullptr) {
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
        telemetry::expected_snapshots(chunks,
                                      catalog.chunk_duration_s() * 1000.0,
                                      scenario.tcp_sample_interval_ms));
  } else {
    const std::filesystem::path spill_file = *spill_dir / kSpillFile;
    if (checkpoint != nullptr && checkpoint->resume) {
      const std::filesystem::path ckpt_file = checkpoint->dir / kCheckpointFile;
      if (std::optional<RunCheckpoint> saved = read_checkpoint(ckpt_file)) {
        const auto first = std::find_if(
            batches.begin(), batches.end(),
            [&](const Batch& b) { return b.begin >= saved->next_index; });
        if (saved->fingerprint != checkpoint->fingerprint ||
            (first == batches.end() ? saved->next_index != n
                                    : first->begin != saved->next_index)) {
          throw std::runtime_error(
              "checkpoint: " + ckpt_file.string() +
              " belongs to a different run configuration (scenario, seed, "
              "shard count, or fault schedule changed) — refusing to mix");
        }
        batches.erase(batches.begin(), first);
        handed = saved->next_index;
        merged.ground_truth = std::move(saved->ground_truth);
        merged.server_stats = std::move(saved->server_stats);
        writer = std::make_unique<telemetry::SpillWriter>(
            spill_file, saved->spill_committed_bytes,
            saved->spill_blocks_written);
      }
    }
    if (writer == nullptr) {  // fresh start (no or unreadable sidecar)
      writer = std::make_unique<telemetry::SpillWriter>(spill_file);
    }
    merged.spill_files.push_back(spill_file);
  }

  // Checkpoint commits, made by the handover.  Degradation policy: a
  // failed sidecar write (full disk, unwritable dir,
  // checkpoint.write/rename failpoint) must not kill a run whose *data*
  // path is healthy — the spill writes themselves still commit.  The
  // first failure warns once and stops further sidecar writes (retrying
  // per commit just spams); the last good sidecar is left intact, so a
  // crash after degradation still resumes from it.
  const std::size_t interval =
      checkpoint != nullptr ? std::max<std::size_t>(1, checkpoint->interval)
                            : 1;
  std::size_t next_commit = (handed / interval + 1) * interval;
  std::size_t commits = 0;
  std::atomic<bool> stopped{false};
  const auto commit = [&] {
    RunCheckpoint cp;
    cp.fingerprint = checkpoint->fingerprint;
    cp.next_index = handed;
    // The flush precedes recording the offset: every byte the sidecar
    // claims is then in the OS page cache, which survives SIGKILL.
    cp.spill_committed_bytes = writer->flush_committed();
    cp.spill_blocks_written = writer->blocks_written();
    cp.ground_truth = merged.ground_truth;
    cp.server_stats = merged.server_stats;
    if (!merged.checkpoints_degraded) {
      try {
        write_checkpoint(checkpoint->dir / kCheckpointFile, cp);
      } catch (const sim::HostIoError& error) {
        merged.checkpoints_degraded = true;
        std::fprintf(
            stderr,
            "vstream: warning: %s — continuing without further "
            "checkpoints (run completes; crash-resume falls back to the "
            "last good sidecar)\n",
            error.what());
      }
    }
    ++commits;
    if (checkpoint->stop_after_checkpoints != 0 &&
        commits >= checkpoint->stop_after_checkpoints && handed < n) {
      // Deliberate early stop (test/chaos hook): the spill file stays in
      // its committed state for a later resume.
      stopped = true;
      merged.completed = false;
    }
  };

  // Fold a batch's accounting, then run-sort its records onto the end of
  // the output, or append its blocks, already in id order, to the file.
  struct Finished {
    ShardResult result;
    std::unique_ptr<telemetry::SpillSink> spill;
  };
  const auto hand_over = [&](Finished& batch, const Batch& b) {
    fold_accounting(merged, batch.result);
    if (writer == nullptr) {
      telemetry::for_each_stream(
          [](std::size_t, auto& from, auto& into) {
            append_run_sorted(from, into);
          },
          batch.result.dataset, merged.dataset);
      return;
    }
    for (const telemetry::SpillSink::Block& block : batch.spill->blocks()) {
      writer->append(batch.spill->frame(block));
    }
    batch.spill.reset();
    handed = b.begin + b.count;
    if (checkpoint != nullptr && (handed >= next_commit || handed == n)) {
      next_commit = (handed / interval + 1) * interval;
      commit();
    }
  };

  // In-order handover.  A finished batch parks in its slot.  The task
  // that finishes batch t, unless another task is draining, hands over
  // the ready batches from `next` on, in batch order, freeing each so
  // later batches reuse its pages — but none past t until every batch has
  // finished.  The workers ahead of the oldest batch thus do the
  // handover, and the one running it does not fall further behind (the
  // drainer's own next batch would otherwise become the oldest again,
  // and the backlog would grow with the run).  The output order is the
  // batch order, never the timing.  A handover that throws (a spill
  // write error) or stops the run (a checkpoint stop) leaves `draining`
  // set and raises `stopped`: nothing more is handed over, and the
  // batches not yet started skip their simulation.
  std::mutex mu;
  std::vector<Finished> done(batches.size());
  std::vector<char> ready(batches.size(), 0);
  std::size_t next = 0;
  std::size_t finished = 0;
  bool draining = false;
  executor.parallel_for(
      batches.size(),
      [&](std::size_t t) {
        if (stopped.load(std::memory_order_relaxed)) return;
        Finished result;
        {
          if (writer != nullptr) {
            result.spill = std::make_unique<telemetry::SpillSink>();
          }
          Shard shard(scenario, catalog, warm, faults, bad_prefixes,
                      result.spill.get());
          result.result =
              shard.run(sessions.subspan(batches[t].begin, batches[t].count));
          if (result.spill != nullptr) result.spill->finish();
        }
        std::unique_lock<std::mutex> lock(mu);
        done[t] = std::move(result);
        ready[t] = 1;
        ++finished;
        if (draining) return;
        draining = true;
        while (!stopped && next < batches.size() && ready[next] != 0 &&
               (next <= t || finished == batches.size())) {
          Finished batch = std::move(done[next]);
          lock.unlock();
          try {
            hand_over(batch, batches[next]);
          } catch (...) {
            stopped = true;
            throw;
          }
          lock.lock();
          ++next;
        }
        if (!stopped) draining = false;
      },
      stats, "shard");

  if (writer != nullptr && merged.completed) writer->close();
  return merged;
}

}  // namespace vstream::engine
