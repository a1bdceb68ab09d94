// Work-stealing executor: correctness of the task substrate everything
// else (engine shards, spill analysis, merge, export) now runs on.
//
// The steal-heavy stress tests are deliberately allocation-light and
// tiny-task-dense — they are the TSan targets wired into tools/tier1.sh
// (VSTREAM_SANITIZE=thread), where any unlocked deque access or Run
// lifetime race turns into a hard failure.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/executor.h"

namespace vstream {
namespace {

using runtime::Executor;
using runtime::ParallelStats;

TEST(ExecutorTest, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    Executor executor(workers);
    for (const std::size_t count : {0u, 1u, 2u, 5u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(count);
      executor.parallel_for(count,
                            [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " with " << workers << " workers";
      }
    }
  }
}

TEST(ExecutorTest, ZeroWorkersClampsToOne) {
  Executor executor(0);
  EXPECT_EQ(executor.workers(), 1u);
  std::size_t ran = 0;
  executor.parallel_for(3, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 3u);
}

TEST(ExecutorTest, SingleWorkerRunsInlineOnCallingThread) {
  Executor executor(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  executor.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ExecutorTest, CallerParticipatesAsWorkerZero) {
  Executor executor(4);
  ParallelStats stats;
  executor.parallel_for(
      256, [](std::size_t) { std::this_thread::yield(); }, &stats);
  ASSERT_EQ(stats.tasks_per_worker.size(), 4u);
  // The calling thread always drains its own block before waiting.
  EXPECT_GT(stats.tasks_per_worker[0], 0u);
}

TEST(ExecutorTest, StatsAccountForEveryTask) {
  Executor executor(3);
  ParallelStats stats;
  executor.parallel_for(100, [](std::size_t) {}, &stats);
  EXPECT_EQ(stats.tasks, 100u);
  ASSERT_EQ(stats.tasks_per_worker.size(), 3u);
  const std::size_t executed =
      std::accumulate(stats.tasks_per_worker.begin(),
                      stats.tasks_per_worker.end(), std::size_t{0});
  EXPECT_EQ(executed, 100u);
  EXPECT_GE(stats.workers_used(), 1u);
}

TEST(ExecutorTest, StatsResetBetweenRuns) {
  Executor executor(2);
  ParallelStats stats;
  executor.parallel_for(50, [](std::size_t) {}, &stats);
  executor.parallel_for(7, [](std::size_t) {}, &stats);
  EXPECT_EQ(stats.tasks, 7u);
  const std::size_t executed =
      std::accumulate(stats.tasks_per_worker.begin(),
                      stats.tasks_per_worker.end(), std::size_t{0});
  EXPECT_EQ(executed, 7u);
}

TEST(ExecutorTest, FirstExceptionPropagatesAfterAllTasksRan) {
  Executor executor(4);
  std::atomic<std::size_t> ran{0};
  try {
    executor.parallel_for(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 13) throw std::runtime_error("task 13 failed");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 13 failed");
  }
  // Independent tasks keep running after one fails — a parallel run is
  // all-or-nothing only in its *reporting*, not its side effects.
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ExecutorTest, ExceptionDoesNotPoisonLaterRuns) {
  Executor executor(2);
  EXPECT_THROW(executor.parallel_for(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<std::size_t> ran{0};
  executor.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10u);
}

TEST(ExecutorTest, TrueConcurrencyRendezvous) {
  // Two tasks that each wait for the other to arrive: only possible when
  // the pool genuinely runs them on two OS threads at once (a serialized
  // executor would spin one task forever).  Timeboxed so a regression
  // fails instead of hanging.
  Executor executor(2);
  std::atomic<int> arrived{0};
  std::atomic<bool> ok{true};
  executor.parallel_for(2, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        ok.store(false);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(ok.load()) << "tasks never met — pool is not concurrent";
}

TEST(ExecutorTest, DealsRoundRobinSoTheLowestIndicesRunFirst) {
  // Two rounds of W tasks, each round a barrier that opens only when all
  // W of its tasks run at once.  Dealt round-robin, worker w holds w and
  // w + W, so every worker enters round 1 with its own task and nothing
  // is stolen.  Dealt in contiguous blocks, one worker would hold two
  // round-1 tasks and the barrier would time out.  Timeboxed so a
  // regression fails instead of hanging.
  constexpr std::size_t kWorkers = 4;
  Executor executor(kWorkers);
  std::array<std::atomic<std::size_t>, 2> arrived{};
  std::atomic<bool> ok{true};
  std::mutex mu;
  std::map<std::thread::id, std::vector<std::size_t>> ran;
  ParallelStats stats;
  executor.parallel_for(
      2 * kWorkers,
      [&](std::size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ran[std::this_thread::get_id()].push_back(i);
        }
        std::atomic<std::size_t>& round = arrived[i / kWorkers];
        round.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (round.load() < kWorkers) {
          if (std::chrono::steady_clock::now() > deadline) {
            ok.store(false);
            return;
          }
          std::this_thread::yield();
        }
      },
      &stats);
  ASSERT_TRUE(ok.load()) << "a round's tasks never ran all at once";
  EXPECT_EQ(stats.steals, 0u);
  ASSERT_EQ(ran.size(), kWorkers);
  // Worker w ran w, then w + W; the caller is worker 0.
  EXPECT_EQ(ran[std::this_thread::get_id()],
            (std::vector<std::size_t>{0, kWorkers}));
  for (const auto& [thread, tasks] : ran) {
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_LT(tasks[0], kWorkers);
    EXPECT_EQ(tasks[1], tasks[0] + kWorkers);
  }
}

TEST(ExecutorTest, ReentrantParallelForFallsBackInline) {
  // A task calling parallel_for on its own executor must not deadlock:
  // the inner call degrades to inline serial execution.
  Executor executor(2);
  std::atomic<std::size_t> inner_ran{0};
  executor.parallel_for(4, [&](std::size_t) {
    executor.parallel_for(8,
                          [&](std::size_t) { inner_ran.fetch_add(1); });
  });
  EXPECT_EQ(inner_ran.load(), 32u);
}

TEST(ExecutorWatchdogTest, StuckTaskIsReportedAndResultsUnchanged) {
  // One task outlives the 20 ms deadline by an order of magnitude: the
  // watchdog must name it (>= 1 report) without perturbing the results —
  // it observes, it never cancels.
  Executor executor(4, /*watchdog_ms=*/20);
  ParallelStats stats;
  std::vector<int> out(16, 0);
  executor.parallel_for(
      16,
      [&](std::size_t i) {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        out[i] = static_cast<int>(i) + 1;
      },
      &stats);
  EXPECT_GE(stats.watchdog_reports, 1u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(ExecutorWatchdogTest, FastTasksDrawNoReports) {
  Executor executor(4, /*watchdog_ms=*/250);
  ParallelStats stats;
  std::atomic<std::size_t> ran{0};
  executor.parallel_for(
      64, [&](std::size_t) { ran.fetch_add(1); }, &stats);
  EXPECT_EQ(ran.load(), 64u);
  EXPECT_EQ(stats.watchdog_reports, 0u);
}

TEST(ExecutorWatchdogTest, DisabledByDefault) {
  // watchdog_ms 0 (and no VSTREAM_WATCHDOG_MS) means no monitor thread:
  // even a slow task draws no report.
  Executor executor(2);
  ParallelStats stats;
  executor.parallel_for(
      4,
      [&](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
      },
      &stats);
  EXPECT_EQ(stats.watchdog_reports, 0u);
}

TEST(ExecutorStressTest, ManyTinyTasksStealHeavy) {
  // The TSan centerpiece: thousands of near-empty tasks per run force
  // constant deque churn and steals; repeated runs cycle the generation
  // handshake.  Any missing lock or stale Run pointer races here.
  Executor executor(4);
  ParallelStats stats;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    executor.parallel_for(
        2000, [&](std::size_t i) { sum.fetch_add(i); }, &stats);
    EXPECT_EQ(sum.load(), 2000u * 1999u / 2);
    EXPECT_EQ(stats.tasks, 2000u);
  }
}

TEST(ExecutorStressTest, SkewedBlocksAreStolen) {
  // All the work hides behind index 0 (one long task), the rest are
  // trivial: the long task pins worker 0's successor... regardless of
  // where it lands, idle workers must steal the remaining tiny tasks
  // rather than idle — over many rounds at least one steal must occur.
  Executor executor(4);
  std::size_t steals = 0;
  for (int round = 0; round < 20; ++round) {
    ParallelStats stats;
    std::atomic<std::size_t> ran{0};
    executor.parallel_for(
        64,
        [&](std::size_t i) {
          ran.fetch_add(1);
          if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        },
        &stats);
    EXPECT_EQ(ran.load(), 64u);
    steals += stats.steals;
  }
  EXPECT_GT(steals, 0u);
}

}  // namespace
}  // namespace vstream
