#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "failpoints/failpoint.h"
#include "sim/env_util.h"
#include "sim/host_error.h"

namespace vstream::runtime {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Executor::Executor(std::size_t workers, std::size_t watchdog_ms)
    : workers_(std::max<std::size_t>(1, workers)),
      watchdog_ms_(watchdog_ms != 0
                       ? watchdog_ms
                       : sim::positive_env("VSTREAM_WATCHDOG_MS", 0)),
      watchdog_fatal_(sim::string_env("VSTREAM_WATCHDOG_FATAL") == "1"),
      queues_(workers_),
      slots_(workers_) {
  threads_.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void Executor::worker_main(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    Run* run = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      run = run_;
    }
    execute(run, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++exited_;
    }
    done_cv_.notify_all();
  }
}

void Executor::execute(Run* run, std::size_t worker, std::size_t first) {
  std::size_t executed = 0;
  std::size_t stolen = 0;
  for (;;) {
    std::size_t index = first;
    bool have = first != TaskSlot::kIdle;
    bool steal = false;
    first = TaskSlot::kIdle;
    if (!have) {
      // Own deque, back first (its tasks were pushed in reverse, so the
      // owner walks them in ascending order).
      WorkerQueue& own = queues_[worker];
      std::lock_guard<std::mutex> lock(own.mu);
      if (own.items.size() > own.head) {
        index = own.items.back();
        own.items.pop_back();
        have = true;
      }
    }
    if (!have) {
      // Steal-on-empty: scan the other deques round-robin from our
      // right-hand neighbour, taking the victim's highest pending index
      // (front), the task its owner would reach last.
      for (std::size_t offset = 1; offset < workers_ && !have; ++offset) {
        WorkerQueue& victim = queues_[(worker + offset) % workers_];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (victim.items.size() > victim.head) {
          index = victim.items[victim.head++];
          have = true;
          steal = true;
        }
      }
    }
    if (!have) break;  // every deque is empty: the run is drained
    if (run->watched) {
      // Publish what this worker is about to run; started_ns first so a
      // watchdog that observes the task index sees a valid start time.
      TaskSlot& slot = slots_[worker];
      slot.started_ns.store(steady_now_ns(), std::memory_order_relaxed);
      slot.task.store(index, std::memory_order_release);
    }
    try {
      // Host-fault hook: a stall fire sleeps here (timing only — the
      // watchdog's quarry), an error fire aborts the task through the
      // run's normal first-exception rethrow.
      if (failpoints::should_fail(failpoints::Site::kRuntimeTaskStall)) {
        throw sim::HostIoError(
            "runtime: injected task fault (failpoint runtime.task_stall)");
      }
      (*run->body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(run->error_mu);
      if (!run->error) run->error = std::current_exception();
    }
    if (run->watched) {
      slots_[worker].task.store(TaskSlot::kIdle, std::memory_order_release);
    }
    ++executed;
    stolen += steal ? 1 : 0;
  }
  if (run->stats != nullptr && executed != 0) {
    std::lock_guard<std::mutex> lock(run->stats_mu);
    run->stats->tasks_per_worker[worker] += executed;
    run->stats->steals += stolen;
  }
}

void Executor::watchdog_main(Run* run, const std::atomic<bool>* run_done) {
  const auto poll =
      std::chrono::milliseconds(std::max<std::size_t>(1, watchdog_ms_ / 4));
  const std::int64_t deadline_ns =
      static_cast<std::int64_t>(watchdog_ms_) * 1'000'000;
  // One report per stuck (worker, task) occurrence, not one per poll.
  std::vector<std::size_t> reported(workers_, TaskSlot::kIdle);
  while (!run_done->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    for (std::size_t w = 0; w < workers_; ++w) {
      const std::size_t task = slots_[w].task.load(std::memory_order_acquire);
      if (task == TaskSlot::kIdle || reported[w] == task) continue;
      const std::int64_t started =
          slots_[w].started_ns.load(std::memory_order_relaxed);
      const std::int64_t elapsed = steady_now_ns() - started;
      if (elapsed < deadline_ns) continue;
      reported[w] = task;
      run->watchdog_reports.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "vstream: watchdog: %s task %zu on worker %zu stuck for "
                   "%lld ms (deadline %zu ms)\n",
                   run->label, task, w,
                   static_cast<long long>(elapsed / 1'000'000), watchdog_ms_);
      if (watchdog_fatal_) {
        std::fprintf(stderr,
                     "vstream: watchdog: aborting (VSTREAM_WATCHDOG_FATAL)\n");
        std::fflush(stderr);
        std::_Exit(5);  // kExitWatchdog, core/exit_codes.h
      }
    }
  }
}

void Executor::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& body,
                            ParallelStats* stats, const char* label) {
  if (stats != nullptr) {
    stats->tasks = count;
    stats->steals = 0;
    stats->watchdog_reports = 0;
    stats->tasks_per_worker.assign(workers_, 0);
  }
  if (count == 0) return;

  const bool parallel =
      workers_ > 1 && count > 1 && !in_run_.exchange(true);
  if (!parallel) {
    // Single-worker pools, single tasks, and reentrant calls all run
    // inline on the calling thread — same results, zero coordination.
    // The task_stall failpoint is still evaluated (same count per task
    // as the pooled path), but nothing watches the calling thread.
    for (std::size_t i = 0; i < count; ++i) {
      if (failpoints::should_fail(failpoints::Site::kRuntimeTaskStall)) {
        throw sim::HostIoError(
            "runtime: injected task fault (failpoint runtime.task_stall)");
      }
      body(i);
    }
    if (stats != nullptr) stats->tasks_per_worker[0] += count;
    return;
  }

  // Deal [0, count) round-robin: worker w gets w, w + W, w + 2W, ...,
  // pushed in reverse so the owner's back-pop walks them in ascending
  // order.  The tasks in flight are then always the lowest pending
  // indices, which keeps an in-order consumer's backlog short.  All deque
  // storage is reserved here; nothing on the per-task path allocates.
  // The caller keeps task 0 out of its deque, so the pool cannot steal
  // it before the caller gets to it.
  for (std::size_t w = 0; w < workers_; ++w) {
    WorkerQueue& queue = queues_[w];
    std::lock_guard<std::mutex> lock(queue.mu);
    queue.items.clear();
    queue.head = 0;
    const std::size_t first = w == 0 ? workers_ : w;
    if (first >= count) continue;
    const std::size_t last = first + (count - 1 - first) / workers_ * workers_;
    queue.items.reserve((last - first) / workers_ + 1);
    for (std::size_t i = last + workers_; i > first;) {
      i -= workers_;
      queue.items.push_back(i);
    }
  }

  Run run;
  run.body = &body;
  run.stats = stats;
  run.label = label;
  run.watched = watchdog_ms_ != 0;

  std::atomic<bool> run_done{false};
  std::thread watchdog;
  if (run.watched) {
    for (TaskSlot& slot : slots_) {
      slot.task.store(TaskSlot::kIdle, std::memory_order_relaxed);
    }
    watchdog = std::thread([this, &run, &run_done] {
      watchdog_main(&run, &run_done);
    });
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    run_ = &run;
    exited_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();

  execute(&run, 0, 0);  // the caller is worker 0

  {
    // Wait for every background worker to leave the run: only then is
    // `run` (stack-owned) guaranteed untouched by other threads.  Each
    // worker enters execute() exactly once per generation, so exited_
    // always reaches workers_ - 1.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return exited_ == workers_ - 1; });
    run_ = nullptr;
  }
  if (run.watched) {
    run_done.store(true, std::memory_order_release);
    watchdog.join();
    if (stats != nullptr) {
      stats->watchdog_reports =
          run.watchdog_reports.load(std::memory_order_relaxed);
    }
  }
  in_run_.store(false);
  if (run.error) std::rethrow_exception(run.error);
}

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return sim::positive_env("VSTREAM_THREADS", hw);
}

}  // namespace vstream::runtime
