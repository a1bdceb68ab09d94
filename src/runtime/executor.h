// Work-stealing task executor: the shared substrate that decouples
// *logical* shards (the determinism partition) from *physical* threads
// (the concurrency level).
//
// Before this layer, engine::run_sharded spawned exactly one std::thread
// per shard, so the shard count was simultaneously the correctness unit
// and the parallelism knob.  The Executor breaks that coupling: callers
// enumerate independent tasks (shard batches, per-file analysis folds,
// per-part merge moves, CSV row ranges) and a fixed pool of M workers
// executes them, stealing from each other when their own queues drain.
//
// Design:
//   * fixed worker pool — worker 0 is whatever thread calls
//     parallel_for(); workers 1..M-1 are background threads parked on a
//     condition variable between runs;
//   * per-worker deques — each run deals [0, count) round-robin, worker
//     w getting w, w + W, w + 2W, ... in its own deque.  Owners pop their
//     lowest pending index, thieves steal the victim's highest, so the
//     tasks in flight are the lowest pending indices of the run (the
//     order an in-order consumer such as run_sharded's memory mode
//     drains in);
//   * steal-on-empty — a worker whose own deque drains scans the other
//     deques round-robin and steals one task at a time, so a worker stuck
//     on a long task (a skewed batch) has its remaining tasks taken by
//     whoever is idle;
//   * no allocation on the steady-state submit path — deques are
//     reserved up front per run; enqueueing a task writes into reserved
//     storage and executing one is a plain indexed call;
//   * exception_ptr propagation — the first task exception is captured,
//     the remaining tasks still run (they are independent), and the
//     exception is rethrown on the calling thread after the run ends.
//
// Determinism: the executor never decides *results*, only *placement*.
// Every caller hands it tasks whose outputs land in preallocated,
// task-indexed slots and are merged in task order afterwards, so thread
// count and steal timing are invisible in the output — the property the
// engine's determinism suite proves bit-for-bit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vstream::runtime {

/// Default logical-shard count for the engine (declared here so the
/// runtime/engine layers agree without an include cycle): high enough
/// that any realistic worker pool has batches to steal, small enough
/// that per-shard replica overhead stays negligible.
inline constexpr std::size_t kDefaultLogicalShards = 64;

/// Observability for one parallel_for run (and the skew tests' evidence
/// that a lopsided partition still spreads across workers).
struct ParallelStats {
  std::size_t tasks = 0;   ///< tasks submitted
  std::size_t steals = 0;  ///< tasks executed by a non-owning worker
  /// Stuck tasks the watchdog reported this run (see Executor docs).
  std::size_t watchdog_reports = 0;
  /// Tasks executed per worker; index 0 is the calling thread.
  std::vector<std::size_t> tasks_per_worker;

  /// Workers that executed at least one task.
  std::size_t workers_used() const {
    std::size_t used = 0;
    for (const std::size_t n : tasks_per_worker) used += (n != 0) ? 1 : 0;
    return used;
  }
};

class Executor {
 public:
  /// A pool of `workers` physical threads (minimum 1).  Worker 0 is the
  /// thread that calls parallel_for; `workers - 1` background threads
  /// are spawned here and parked until a run starts.
  ///
  /// `watchdog_ms` nonzero (or the VSTREAM_WATCHDOG_MS environment
  /// variable — strict positive parse) arms a stuck-task watchdog: each
  /// parallel run spawns one monitor thread that reports any task still
  /// executing past the deadline to stderr, naming the task label,
  /// index, and worker, and counts it in ParallelStats.watchdog_reports.
  /// With VSTREAM_WATCHDOG_FATAL=1 the first report instead aborts the
  /// process with the documented watchdog exit code (5,
  /// core/exit_codes.h) — a hung host call becomes a clean diagnostic
  /// rather than an indefinite hang.  Inline (single-worker/reentrant)
  /// execution is not watched: the calling thread is the one that would
  /// be stuck.
  explicit Executor(std::size_t workers, std::size_t watchdog_ms = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t workers() const { return workers_; }

  /// Run `body(i)` once for every i in [0, count), distributed over the
  /// pool, and block until every task finished.  Tasks must be
  /// independent (they run concurrently in unspecified order).  The
  /// first exception thrown by a task is rethrown here after all tasks
  /// ran.  Reentrant calls (a task invoking parallel_for on its own
  /// executor, or a second thread racing a run) degrade safely to
  /// inline serial execution on the calling thread.  `label` names the
  /// task domain in watchdog diagnostics ("shard", "merge", ...).
  /// Every task first evaluates the runtime.task_stall failpoint: a
  /// stall fire sleeps (timing only, never results), an error fire
  /// throws sim::HostIoError through the normal rethrow path.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    ParallelStats* stats = nullptr,
                    const char* label = "task");

 private:
  /// One worker's task deque.  `items[head..size)` are pending, highest
  /// index first; the owner pops from the back, thieves take from the
  /// front.  The mutex guards both cursor and storage — critical sections
  /// are a handful of instructions, and tasks are coarse (session
  /// batches, file folds), so contention is irrelevant next to task cost.
  struct WorkerQueue {
    std::mutex mu;
    std::vector<std::size_t> items;
    std::size_t head = 0;
  };

  /// Shared state of one parallel_for run, owned by the caller's stack.
  struct Run {
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex error_mu;
    std::exception_ptr error;
    ParallelStats* stats = nullptr;
    std::mutex stats_mu;
    const char* label = "task";
    bool watched = false;  ///< workers publish task slots for the watchdog
    std::atomic<std::size_t> watchdog_reports{0};
  };

  /// What each worker is running right now, published for the watchdog.
  struct alignas(64) TaskSlot {
    static constexpr std::size_t kIdle = ~std::size_t{0};
    std::atomic<std::size_t> task{kIdle};
    std::atomic<std::int64_t> started_ns{0};
  };

  void worker_main(std::size_t worker);
  /// Drain tasks (`first` if given, then own deque, then steal) until
  /// none remain.
  void execute(Run* run, std::size_t worker,
               std::size_t first = TaskSlot::kIdle);
  /// Watchdog monitor loop; runs on its own thread for watched runs.
  void watchdog_main(Run* run, const std::atomic<bool>* run_done);

  const std::size_t workers_;
  const std::size_t watchdog_ms_;
  const bool watchdog_fatal_;
  std::vector<WorkerQueue> queues_;
  std::vector<TaskSlot> slots_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a new run (generation) began
  std::condition_variable done_cv_;  ///< caller: a worker left the run
  std::uint64_t generation_ = 0;
  Run* run_ = nullptr;
  std::size_t exited_ = 0;  ///< background workers done with the current run
  bool stop_ = false;

  std::atomic<bool> in_run_{false};  ///< reentrancy guard (inline fallback)
};

/// Resolve the physical worker count: `requested` if nonzero, else the
/// VSTREAM_THREADS environment variable (strict parse — set but invalid
/// throws std::runtime_error naming the variable), else
/// std::thread::hardware_concurrency() (minimum 1).  Mirrors
/// engine::resolve_shard_count, which resolves the *logical* partition;
/// this resolves the *physical* pool.
std::size_t resolve_thread_count(std::size_t requested = 0);

}  // namespace vstream::runtime
