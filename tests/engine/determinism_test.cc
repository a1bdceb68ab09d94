// The engine's headline guarantee: for a fixed (scenario, options), the
// merged output is bit-identical for ANY shard count — with and without
// injected faults — and repeated runs reproduce it byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/streaming.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

/// Serialize every record stream exactly as export_dataset would write the
/// files; byte-equality of this string is byte-equality of the exports.
std::string export_string(const telemetry::Dataset& data) {
  std::ostringstream out;
  telemetry::write_csv(out, data.player_sessions);
  telemetry::write_csv(out, data.cdn_sessions);
  telemetry::write_csv(out, data.player_chunks);
  telemetry::write_csv(out, data.cdn_chunks);
  telemetry::write_csv(out, data.tcp_snapshots);
  return out.str();
}

workload::Scenario small_scenario() {
  workload::Scenario s = workload::test_scenario();
  s.session_count = 120;
  return s;
}

void expect_equal_ground_truth(const engine::GroundTruth& a,
                               const engine::GroundTruth& b) {
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  EXPECT_EQ(a.total_ds_anomalies, b.total_ds_anomalies);
  EXPECT_EQ(a.stall_abandonments, b.stall_abandonments);
  EXPECT_EQ(a.request_timeouts, b.request_timeouts);
  EXPECT_EQ(a.chunk_retries, b.chunk_retries);
  EXPECT_EQ(a.failover_events, b.failover_events);
  EXPECT_EQ(a.failed_sessions, b.failed_sessions);
  EXPECT_EQ(a.ds_anomalies, b.ds_anomalies);
  EXPECT_EQ(a.proxied, b.proxied);
  EXPECT_EQ(a.injected_faults.size(), b.injected_faults.size());
}

void expect_equal_server_stats(const std::vector<cdn::ServerStats>& a,
                               const std::vector<cdn::ServerStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].requests_served, b[i].requests_served) << "server " << i;
    EXPECT_EQ(a[i].ram_hits, b[i].ram_hits) << "server " << i;
    EXPECT_EQ(a[i].disk_hits, b[i].disk_hits) << "server " << i;
    EXPECT_EQ(a[i].misses, b[i].misses) << "server " << i;
    EXPECT_EQ(a[i].backend_fetches, b[i].backend_fetches) << "server " << i;
    EXPECT_EQ(a[i].stale_serves, b[i].stale_serves) << "server " << i;
    EXPECT_EQ(a[i].shed_requests, b[i].shed_requests) << "server " << i;
    EXPECT_EQ(a[i].hedged_fetches, b[i].hedged_fetches) << "server " << i;
    EXPECT_EQ(a[i].hedge_wins, b[i].hedge_wins) << "server " << i;
    EXPECT_EQ(a[i].breaker_open_transitions, b[i].breaker_open_transitions)
        << "server " << i;
    EXPECT_EQ(a[i].retry_budget_exhausted, b[i].retry_budget_exhausted)
        << "server " << i;
    EXPECT_EQ(a[i].swr_serves, b[i].swr_serves) << "server " << i;
  }
}

/// A schedule exercising every recovery path: a server crash (failover), a
/// backend outage (miss errors), a loss burst (client-path loss), and a
/// disk degradation (slow reads / timeouts).
faults::FaultSchedule eventful_schedule() {
  return faults::FaultSchedule::scripted({
      {faults::FaultKind::kServerCrash, 5'000.0, 60'000.0, 0, 1, 1.0},
      {faults::FaultKind::kBackendOutage, 20'000.0, 30'000.0, 0, 0, 1.0},
      {faults::FaultKind::kLossBurst, 40'000.0, 25'000.0, 0, 0, 0.05},
      {faults::FaultKind::kDiskDegradation, 70'000.0, 40'000.0, 1, 0, 8.0},
  });
}

TEST(EngineDeterminismTest, SameSeedTwiceIsByteIdentical) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions options;
  options.shards = 2;
  engine::RunResult first = engine::run_simulation(scenario, options);
  engine::RunResult second = engine::run_simulation(scenario, options);
  EXPECT_FALSE(first.dataset.player_chunks.empty());
  EXPECT_EQ(export_string(first.dataset), export_string(second.dataset));
  expect_equal_ground_truth(first.ground_truth, second.ground_truth);
  expect_equal_server_stats(first.server_stats, second.server_stats);
}

TEST(EngineDeterminismTest, DifferentSeedsDiffer) {
  workload::Scenario scenario = small_scenario();
  const engine::RunResult first = engine::run_simulation(scenario);
  scenario.seed += 1;
  const engine::RunResult second = engine::run_simulation(scenario);
  EXPECT_NE(export_string(first.dataset), export_string(second.dataset));
}

TEST(EngineDeterminismTest, ShardCountInvariantFaultFree) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  ASSERT_FALSE(reference.dataset.player_chunks.empty());

  for (const std::size_t shards : {2, 4, 8}) {
    engine::RunOptions options;
    options.shards = shards;
    const engine::RunResult run = engine::run_simulation(scenario, options);
    EXPECT_EQ(run.shard_count, shards);
    EXPECT_EQ(export_string(run.dataset), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }
}

TEST(EngineDeterminismTest, ShardCountInvariantUnderFaults) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.faults = eventful_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);

  // The schedule must actually bite, or the test proves nothing.
  EXPECT_GT(reference.ground_truth.chunk_retries +
                reference.ground_truth.request_timeouts +
                reference.ground_truth.failover_events,
            0u);
  EXPECT_EQ(reference.ground_truth.injected_faults.size(), 4u);

  for (const std::size_t shards : {2, 4, 8}) {
    engine::RunOptions options;
    options.shards = shards;
    options.faults = eventful_schedule();
    const engine::RunResult run = engine::run_simulation(scenario, options);
    EXPECT_EQ(export_string(run.dataset), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }
}

/// Overload-protection scenario: a flash crowd on every server of PoP 0
/// (shedding active) plus a severe origin brownout (breakers trip, hedges
/// race the slow primary) — the new state machines all engage.
faults::FaultSchedule overload_schedule() {
  return faults::FaultSchedule::scripted({
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 0, 3.0},
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 1, 3.0},
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 2, 2.0},
      {faults::FaultKind::kBackendSlowdown, 10'000.0, 60'000.0, 0, 0, 8.0},
      {faults::FaultKind::kBackendOutage, 80'000.0, 15'000.0, 0, 0, 1.0},
  });
}

TEST(EngineDeterminismTest, ShardCountInvariantUnderOverloadProtection) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.faults = overload_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);

  // The protection layer must actually engage, or the test proves nothing:
  // the flash crowd sheds low-priority work and the brownout trips
  // per-session breakers.
  std::uint64_t shed = 0, trips = 0;
  for (const cdn::ServerStats& s : reference.server_stats) {
    shed += s.shed_requests;
    trips += s.breaker_open_transitions;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(trips, 0u);

  for (const std::size_t shards : {2, 4, 8}) {
    engine::RunOptions options;
    options.shards = shards;
    options.faults = overload_schedule();
    const engine::RunResult run = engine::run_simulation(scenario, options);
    EXPECT_EQ(export_string(run.dataset), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }
}

TEST(EngineDeterminismTest, ShardCountLargerThanSessionsStillMatches) {
  workload::Scenario scenario = small_scenario();
  scenario.session_count = 5;
  engine::RunOptions one;
  one.shards = 1;
  engine::RunOptions many;
  many.shards = 8;  // most shards run empty
  EXPECT_EQ(export_string(engine::run_simulation(scenario, one).dataset),
            export_string(engine::run_simulation(scenario, many).dataset));
}

/// Fresh per-test scratch directory for spill files.
std::filesystem::path spill_scratch(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("vstream_determinism_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(EngineDeterminismTest, SpillRunMatchesInMemoryForEveryShardCount) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  ASSERT_FALSE(reference.dataset.player_chunks.empty());

  const std::filesystem::path dir = spill_scratch("shards");
  for (const std::size_t shards : {1, 2, 4, 8}) {
    engine::RunOptions options;
    options.shards = shards;
    options.telemetry_spill_dir =
        (dir / ("s" + std::to_string(shards))).string();
    const engine::RunResult run = engine::run_simulation(scenario, options);

    ASSERT_TRUE(run.spilled()) << "shards=" << shards;
    EXPECT_TRUE(run.dataset.player_chunks.empty()) << "shards=" << shards;
    EXPECT_EQ(run.spill.files().size(), shards) << "shards=" << shards;

    // Materializing the spill set reproduces the canonical in-memory
    // dataset byte for byte — CSV export is the oracle.
    EXPECT_EQ(export_string(run.spill.load()), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminismTest, SpillAnalysisMatchesBatchAnalysis) {
  const workload::Scenario scenario = small_scenario();

  engine::RunOptions memory_options;
  memory_options.shards = 4;
  const engine::AnalyzedRun batch =
      engine::run_and_analyze(scenario, memory_options);
  const analysis::QoeAggregate batch_qoe =
      analysis::aggregate_qoe(batch.joined);
  const double tau = batch.run.catalog->chunk_duration_s();

  const std::filesystem::path dir = spill_scratch("analysis");
  engine::RunOptions spill_options;
  spill_options.shards = 4;
  spill_options.telemetry_spill_dir = dir.string();
  const engine::RunResult spilled =
      engine::run_simulation(scenario, spill_options);
  ASSERT_TRUE(spilled.spilled());

  const core::StreamingAnalysis streamed =
      core::analyze_spill(spilled.spill, tau);

  // Proxy detection and join accounting agree exactly.
  EXPECT_EQ(streamed.proxies.proxy_sessions, batch.proxies.proxy_sessions);
  EXPECT_EQ(streamed.sessions_joined, batch.joined.sessions().size());
  EXPECT_EQ(streamed.dropped_as_proxy, batch.joined.dropped_as_proxy());
  EXPECT_EQ(streamed.dropped_incomplete, batch.joined.dropped_incomplete());

  // The QoE aggregate is bit-identical to the batch fold.
  EXPECT_EQ(streamed.qoe.sessions, batch_qoe.sessions);
  EXPECT_EQ(streamed.qoe.startup_ms.mean, batch_qoe.startup_ms.mean);
  EXPECT_EQ(streamed.qoe.startup_ms.median, batch_qoe.startup_ms.median);
  EXPECT_EQ(streamed.qoe.rebuffer_rate_pct.p95,
            batch_qoe.rebuffer_rate_pct.p95);
  EXPECT_EQ(streamed.qoe.avg_bitrate_kbps.mean,
            batch_qoe.avg_bitrate_kbps.mean);
  EXPECT_EQ(streamed.qoe.share_with_rebuffering,
            batch_qoe.share_with_rebuffering);

  // And so is the prefix roll-up.
  const std::vector<analysis::PrefixRollup> batch_prefixes =
      analysis::rollup_prefixes(batch.joined);
  ASSERT_EQ(streamed.prefixes.size(), batch_prefixes.size());
  for (std::size_t i = 0; i < batch_prefixes.size(); ++i) {
    EXPECT_EQ(streamed.prefixes[i].prefix, batch_prefixes[i].prefix);
    EXPECT_EQ(streamed.prefixes[i].session_count,
              batch_prefixes[i].session_count);
    EXPECT_EQ(streamed.prefixes[i].mean_srtt_ms,
              batch_prefixes[i].mean_srtt_ms);
  }

  // And so is the recovery impact, field by field.
  const analysis::RecoveryImpact batch_recovery =
      analysis::recovery_impact(batch.joined);
  const analysis::RecoveryImpact& r = streamed.recovery;
  EXPECT_EQ(r.sessions, batch_recovery.sessions);
  EXPECT_EQ(r.completed_sessions, batch_recovery.completed_sessions);
  EXPECT_EQ(r.failover_sessions, batch_recovery.failover_sessions);
  EXPECT_EQ(r.affected_sessions, batch_recovery.affected_sessions);
  EXPECT_EQ(r.retries, batch_recovery.retries);
  EXPECT_EQ(r.timeouts, batch_recovery.timeouts);
  EXPECT_EQ(r.stale_chunks, batch_recovery.stale_chunks);
  EXPECT_EQ(r.shed_chunks, batch_recovery.shed_chunks);
  EXPECT_EQ(r.hedged_chunks, batch_recovery.hedged_chunks);
  EXPECT_EQ(r.hedge_wins, batch_recovery.hedge_wins);
  EXPECT_EQ(r.swr_chunks, batch_recovery.swr_chunks);
  EXPECT_EQ(r.budget_denied_chunks, batch_recovery.budget_denied_chunks);
  EXPECT_EQ(r.mean_recovery_ms, batch_recovery.mean_recovery_ms);
  EXPECT_EQ(r.mean_dfb_failover_ms, batch_recovery.mean_dfb_failover_ms);
  EXPECT_EQ(r.mean_dfb_clean_ms, batch_recovery.mean_dfb_clean_ms);
  EXPECT_EQ(r.rebuffer_rate_percent, batch_recovery.rebuffer_rate_percent);

  // analyze_dataset over the in-memory run agrees with analyze_spill over
  // the spilled run on everything, including the recovery counts and the
  // per-session QoE rows, at one worker and at four.  The run has
  // proxies, so the spill path's drop at finalize is exercised.
  const core::StreamingAnalysis in_memory =
      core::analyze_dataset(batch.run.dataset, tau);
  ASSERT_GT(in_memory.dropped_as_proxy, 0u);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::StreamingAnalysis spilled_analysis =
        core::analyze_spill(spilled.spill, tau, {}, threads);
    EXPECT_EQ(in_memory.proxies.proxy_sessions,
              spilled_analysis.proxies.proxy_sessions);
    EXPECT_EQ(in_memory.sessions_joined, spilled_analysis.sessions_joined);
    EXPECT_EQ(in_memory.dropped_as_proxy, spilled_analysis.dropped_as_proxy);
    EXPECT_EQ(in_memory.dropped_incomplete,
              spilled_analysis.dropped_incomplete);
    EXPECT_EQ(in_memory.qoe.sessions, spilled_analysis.qoe.sessions);
    EXPECT_EQ(in_memory.qoe.startup_ms.mean,
              spilled_analysis.qoe.startup_ms.mean);
    EXPECT_EQ(in_memory.perf.chunks, spilled_analysis.perf.chunks);
    EXPECT_EQ(in_memory.perf.scored_chunks,
              spilled_analysis.perf.scored_chunks);
    EXPECT_EQ(in_memory.perf.mean_score, spilled_analysis.perf.mean_score);
    EXPECT_EQ(in_memory.recovery.sessions, spilled_analysis.recovery.sessions);
    EXPECT_EQ(in_memory.recovery.retries, spilled_analysis.recovery.retries);
    EXPECT_EQ(in_memory.recovery.mean_recovery_ms,
              spilled_analysis.recovery.mean_recovery_ms);
    EXPECT_EQ(in_memory.prefixes.size(), spilled_analysis.prefixes.size());
    EXPECT_EQ(in_memory.session_qoe, spilled_analysis.session_qoe);
    EXPECT_EQ(spilled_analysis.session_qoe.size(),
              spilled_analysis.sessions_joined +
                  spilled_analysis.dropped_as_proxy);
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminismTest, CheckpointedRunMatchesUninterrupted) {
  // Batching a shard's partition into checkpoint intervals must not change
  // a single byte of output: batches are just a finer sharding.
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);

  const std::filesystem::path dir = spill_scratch("ckpt");
  for (const std::size_t shards : {1, 2, 4}) {
    engine::RunOptions options;
    options.shards = shards;
    options.checkpoint_dir = (dir / ("s" + std::to_string(shards))).string();
    options.checkpoint_interval = 13;  // deliberately awkward batch size
    const engine::RunResult run = engine::run_simulation(scenario, options);

    EXPECT_TRUE(run.completed) << "shards=" << shards;
    ASSERT_TRUE(run.spilled()) << "shards=" << shards;
    EXPECT_EQ(export_string(run.spill.load()), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
    // Every shard left a sidecar behind.
    for (std::size_t i = 0; i < shards; ++i) {
      EXPECT_TRUE(std::filesystem::exists(
          std::filesystem::path(options.checkpoint_dir) /
          ("shard-" + std::to_string(i) + ".vckpt")))
          << "shards=" << shards << " sidecar " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminismTest, ResumedRunIsBitIdenticalToUninterrupted) {
  // The resume scenario the crash-safety work exists for: checkpoint
  // mid-run, stop, restart with resume — analysis bit-identical and CSVs
  // byte-identical to a run that never stopped.  Faults included so the
  // recovery paths cross the checkpoint boundary too.
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.faults = eventful_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  const double tau = reference.catalog->chunk_duration_s();
  const core::StreamingAnalysis reference_analysis =
      core::analyze_dataset(reference.dataset, tau);
  ASSERT_GT(reference_analysis.dropped_as_proxy, 0u);

  const std::filesystem::path dir = spill_scratch("resume");
  for (const std::size_t shards : {1, 2, 4}) {
    engine::RunOptions options;
    options.shards = shards;
    options.faults = eventful_schedule();
    options.checkpoint_dir = (dir / ("s" + std::to_string(shards))).string();
    options.checkpoint_interval = 20;

    // Phase 1: run until the first checkpoint, then stop mid-run.
    options.stop_after_checkpoints = 1;
    const engine::RunResult partial =
        engine::run_simulation(scenario, options);
    EXPECT_FALSE(partial.completed) << "shards=" << shards;

    // Phase 2: a fresh engine invocation resumes and finishes.
    options.stop_after_checkpoints = 0;
    options.resume = true;
    const engine::RunResult resumed =
        engine::run_simulation(scenario, options);
    EXPECT_TRUE(resumed.completed) << "shards=" << shards;
    ASSERT_TRUE(resumed.spilled()) << "shards=" << shards;

    // Byte-identical CSV export, bit-identical accounting and analysis.
    telemetry::SpillReadStats stats;
    EXPECT_EQ(export_string(resumed.spill.load(&stats)), reference_csv)
        << "shards=" << shards;
    EXPECT_FALSE(stats.corrupted()) << "shards=" << shards;
    expect_equal_ground_truth(resumed.ground_truth, reference.ground_truth);
    expect_equal_server_stats(resumed.server_stats, reference.server_stats);

    for (const std::size_t threads : {1, 4}) {
      const core::StreamingAnalysis resumed_analysis =
          core::analyze_spill(resumed.spill, tau, {}, threads);
      EXPECT_EQ(resumed_analysis.sessions_joined,
                reference_analysis.sessions_joined);
      EXPECT_EQ(resumed_analysis.dropped_as_proxy,
                reference_analysis.dropped_as_proxy);
      EXPECT_EQ(resumed_analysis.qoe.startup_ms.mean,
                reference_analysis.qoe.startup_ms.mean);
      EXPECT_EQ(resumed_analysis.perf.mean_score,
                reference_analysis.perf.mean_score);
      EXPECT_EQ(resumed_analysis.recovery.retries,
                reference_analysis.recovery.retries);
      EXPECT_EQ(resumed_analysis.session_qoe, reference_analysis.session_qoe)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_FALSE(resumed_analysis.spill.corrupted()) << "shards=" << shards;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminismTest, ResumeOfCompletedRunIsANoOp) {
  const workload::Scenario scenario = small_scenario();
  const std::filesystem::path dir = spill_scratch("noop");
  engine::RunOptions options;
  options.shards = 2;
  options.checkpoint_dir = dir.string();
  options.checkpoint_interval = 50;
  const engine::RunResult first = engine::run_simulation(scenario, options);
  EXPECT_TRUE(first.completed);
  const std::string first_csv = export_string(first.spill.load());

  options.resume = true;
  const engine::RunResult again = engine::run_simulation(scenario, options);
  EXPECT_TRUE(again.completed);
  EXPECT_EQ(export_string(again.spill.load()), first_csv);
  std::filesystem::remove_all(dir);
}

TEST(EngineDeterminismTest, RunAndAnalyzeRefusesSpilledRuns) {
  workload::Scenario scenario = small_scenario();
  scenario.session_count = 10;
  const std::filesystem::path dir = spill_scratch("refuse");
  engine::RunOptions options;
  options.shards = 2;
  options.telemetry_spill_dir = dir.string();
  EXPECT_THROW(engine::run_and_analyze(scenario, options),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ===================================================================
// Thread-count invariance: the physical worker pool decides only WHERE
// tasks execute, never what they produce.  Every cell of the
// threads x shards matrix must reproduce the single-threaded,
// single-shard run byte for byte — fault-free, faulted, overloaded,
// spilled, and across a kill/resume boundary.

TEST(ThreadDeterminismTest, ThreadsTimesShardsMatrixFaultFree) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.threads = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  ASSERT_FALSE(reference.dataset.player_chunks.empty());

  for (const std::size_t shards : {1, 4, 64}) {
    for (const std::size_t threads : {1, 2, 4, 8}) {
      engine::RunOptions options;
      options.shards = shards;
      options.threads = threads;
      const engine::RunResult run = engine::run_simulation(scenario, options);
      EXPECT_EQ(run.thread_count, threads);
      EXPECT_EQ(export_string(run.dataset), reference_csv)
          << "shards=" << shards << " threads=" << threads;
      expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
      expect_equal_server_stats(run.server_stats, reference.server_stats);
    }
  }
}

TEST(ThreadDeterminismTest, ThreadCountInvariantUnderFaults) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.threads = 1;
  base.faults = eventful_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  EXPECT_GT(reference.ground_truth.chunk_retries +
                reference.ground_truth.request_timeouts +
                reference.ground_truth.failover_events,
            0u);

  for (const std::size_t shards : {4, 64}) {
    for (const std::size_t threads : {2, 8}) {
      engine::RunOptions options;
      options.shards = shards;
      options.threads = threads;
      options.faults = eventful_schedule();
      const engine::RunResult run = engine::run_simulation(scenario, options);
      EXPECT_EQ(export_string(run.dataset), reference_csv)
          << "shards=" << shards << " threads=" << threads;
      expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
      expect_equal_server_stats(run.server_stats, reference.server_stats);
    }
  }
}

TEST(ThreadDeterminismTest, ThreadCountInvariantUnderOverloadProtection) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.threads = 1;
  base.faults = overload_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);
  std::uint64_t shed = 0;
  for (const cdn::ServerStats& s : reference.server_stats) {
    shed += s.shed_requests;
  }
  EXPECT_GT(shed, 0u);

  for (const std::size_t shards : {1, 4, 64}) {
    engine::RunOptions options;
    options.shards = shards;
    options.threads = 8;
    options.faults = overload_schedule();
    const engine::RunResult run = engine::run_simulation(scenario, options);
    EXPECT_EQ(export_string(run.dataset), reference_csv)
        << "shards=" << shards;
    expect_equal_ground_truth(run.ground_truth, reference.ground_truth);
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }
}

TEST(ThreadDeterminismTest, SpilledRunsAreThreadCountInvariant) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.threads = 1;
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);

  const std::filesystem::path dir = spill_scratch("threads_spill");
  for (const std::size_t threads : {1, 2, 4, 8}) {
    engine::RunOptions options;
    options.shards = 4;
    options.threads = threads;
    options.telemetry_spill_dir =
        (dir / ("t" + std::to_string(threads))).string();
    const engine::RunResult run = engine::run_simulation(scenario, options);
    ASSERT_TRUE(run.spilled()) << "threads=" << threads;
    EXPECT_EQ(run.spill.files().size(), 4u) << "threads=" << threads;
    EXPECT_EQ(export_string(run.spill.load()), reference_csv)
        << "threads=" << threads;
    expect_equal_server_stats(run.server_stats, reference.server_stats);
  }

  // The wide-partition cell: 64 spill files written by 4 workers.
  engine::RunOptions wide;
  wide.shards = 64;
  wide.threads = 4;
  wide.telemetry_spill_dir = (dir / "wide").string();
  const engine::RunResult run = engine::run_simulation(scenario, wide);
  ASSERT_TRUE(run.spilled());
  EXPECT_EQ(run.spill.files().size(), 64u);
  EXPECT_EQ(export_string(run.spill.load()), reference_csv);
  std::filesystem::remove_all(dir);
}

TEST(ThreadDeterminismTest, ResumedRunIsThreadCountInvariant) {
  // Kill/resume under a faulted schedule, interrupted run and resume both
  // multi-threaded — output must match a single-threaded run that never
  // stopped.
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions base;
  base.shards = 1;
  base.threads = 1;
  base.faults = eventful_schedule();
  const engine::RunResult reference = engine::run_simulation(scenario, base);
  const std::string reference_csv = export_string(reference.dataset);

  const std::filesystem::path dir = spill_scratch("threads_resume");
  for (const std::size_t threads : {4, 8}) {
    engine::RunOptions options;
    options.shards = 4;
    options.threads = threads;
    options.faults = eventful_schedule();
    options.checkpoint_dir = (dir / ("t" + std::to_string(threads))).string();
    options.checkpoint_interval = 20;

    options.stop_after_checkpoints = 1;
    const engine::RunResult partial =
        engine::run_simulation(scenario, options);
    EXPECT_FALSE(partial.completed) << "threads=" << threads;

    options.stop_after_checkpoints = 0;
    options.resume = true;
    const engine::RunResult resumed =
        engine::run_simulation(scenario, options);
    EXPECT_TRUE(resumed.completed) << "threads=" << threads;
    ASSERT_TRUE(resumed.spilled()) << "threads=" << threads;
    EXPECT_EQ(export_string(resumed.spill.load()), reference_csv)
        << "threads=" << threads;
    expect_equal_ground_truth(resumed.ground_truth, reference.ground_truth);
    expect_equal_server_stats(resumed.server_stats, reference.server_stats);
  }
  std::filesystem::remove_all(dir);
}

TEST(ThreadDeterminismTest, ParallelSpillAnalysisMatchesSerial) {
  // analyze_spill folds per-file accumulators as tasks; every thread
  // count must produce the bit-identical analysis the single-worker run
  // produces.  64 shards → 64 spill files gives the pool real work to
  // steal.
  const workload::Scenario scenario = small_scenario();
  const std::filesystem::path dir = spill_scratch("threads_analysis");
  engine::RunOptions options;
  options.shards = 64;
  options.threads = 4;
  options.telemetry_spill_dir = dir.string();
  const engine::RunResult run = engine::run_simulation(scenario, options);
  ASSERT_TRUE(run.spilled());
  const double tau = run.catalog->chunk_duration_s();

  const core::StreamingAnalysis serial =
      core::analyze_spill(run.spill, tau, {}, 1);
  ASSERT_GT(serial.sessions_joined, 0u);

  for (const std::size_t threads : {2, 4, 8}) {
    const core::StreamingAnalysis parallel =
        core::analyze_spill(run.spill, tau, {}, threads);
    EXPECT_EQ(parallel.proxies.proxy_sessions, serial.proxies.proxy_sessions);
    EXPECT_EQ(parallel.sessions_joined, serial.sessions_joined);
    EXPECT_EQ(parallel.dropped_as_proxy, serial.dropped_as_proxy);
    EXPECT_EQ(parallel.dropped_incomplete, serial.dropped_incomplete);
    EXPECT_EQ(parallel.qoe.sessions, serial.qoe.sessions);
    EXPECT_EQ(parallel.qoe.startup_ms.mean, serial.qoe.startup_ms.mean);
    EXPECT_EQ(parallel.qoe.startup_ms.median, serial.qoe.startup_ms.median);
    EXPECT_EQ(parallel.qoe.rebuffer_rate_pct.p95,
              serial.qoe.rebuffer_rate_pct.p95);
    EXPECT_EQ(parallel.qoe.avg_bitrate_kbps.mean,
              serial.qoe.avg_bitrate_kbps.mean);
    EXPECT_EQ(parallel.qoe.share_with_rebuffering,
              serial.qoe.share_with_rebuffering);
    EXPECT_EQ(parallel.perf.chunks, serial.perf.chunks);
    EXPECT_EQ(parallel.perf.scored_chunks, serial.perf.scored_chunks);
    EXPECT_EQ(parallel.perf.mean_score, serial.perf.mean_score);
    EXPECT_EQ(parallel.recovery.retries, serial.recovery.retries);
    EXPECT_EQ(parallel.recovery.mean_recovery_ms,
              serial.recovery.mean_recovery_ms);
    EXPECT_EQ(parallel.session_qoe, serial.session_qoe);
    ASSERT_EQ(parallel.prefixes.size(), serial.prefixes.size());
    for (std::size_t i = 0; i < serial.prefixes.size(); ++i) {
      EXPECT_EQ(parallel.prefixes[i].prefix, serial.prefixes[i].prefix);
      EXPECT_EQ(parallel.prefixes[i].session_count,
                serial.prefixes[i].session_count);
      EXPECT_EQ(parallel.prefixes[i].mean_srtt_ms,
                serial.prefixes[i].mean_srtt_ms);
    }
    // Salvage accounting sums to the serial totals exactly.
    EXPECT_EQ(parallel.spill.blocks_ok, serial.spill.blocks_ok);
    EXPECT_EQ(parallel.spill.bytes_salvaged, serial.spill.bytes_salvaged);
    EXPECT_EQ(parallel.spill.commit_frames, serial.spill.commit_frames);
    EXPECT_FALSE(parallel.spill.corrupted());
  }
  std::filesystem::remove_all(dir);
}

// ===================================================================
// Replay determinism: re-running any single session through
// engine::ReplayContext with a null idealization must reproduce that
// session's slice of the full run — records byte-identical, QoE
// bit-identical — no matter how many shards or threads the full run
// used.  This is the property the attribution pass stands on.

/// The records of one session, in the full dataset's stream order.
telemetry::Dataset session_slice(const telemetry::Dataset& data,
                                 std::uint64_t id) {
  telemetry::Dataset out;
  for (const auto& r : data.player_sessions) {
    if (r.session_id == id) out.player_sessions.push_back(r);
  }
  for (const auto& r : data.cdn_sessions) {
    if (r.session_id == id) out.cdn_sessions.push_back(r);
  }
  for (const auto& r : data.player_chunks) {
    if (r.session_id == id) out.player_chunks.push_back(r);
  }
  for (const auto& r : data.cdn_chunks) {
    if (r.session_id == id) out.cdn_chunks.push_back(r);
  }
  for (const auto& r : data.tcp_snapshots) {
    if (r.session_id == id) out.tcp_snapshots.push_back(r);
  }
  return out;
}

/// A spread of admitted session ids: first, last, and three in between.
std::vector<std::uint64_t> probe_ids(const engine::ReplayContext& ctx) {
  const auto& admitted = ctx.admitted();
  std::vector<std::uint64_t> ids;
  for (const std::size_t at :
       {std::size_t{0}, admitted.size() / 4, admitted.size() / 2,
        3 * admitted.size() / 4, admitted.size() - 1}) {
    ids.push_back(admitted[at].spec.session_id);
  }
  return ids;
}

void expect_replay_matches_cells(const faults::FaultSchedule& schedule,
                                 const char* tag) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions replay_options;
  replay_options.faults = schedule;
  const engine::ReplayContext ctx(scenario, replay_options);
  const std::vector<std::uint64_t> ids = probe_ids(ctx);

  for (const std::size_t shards : {1, 4, 64}) {
    for (const std::size_t threads : {1, 4}) {
      engine::RunOptions options;
      options.shards = shards;
      options.threads = threads;
      options.faults = schedule;
      const engine::RunResult run = engine::run_simulation(scenario, options);

      for (const std::uint64_t id : ids) {
        const auto replayed = ctx.replay_session(id);
        ASSERT_TRUE(replayed.has_value())
            << tag << " session " << id << " not admitted";
        const telemetry::Dataset original = session_slice(run.dataset, id);
        EXPECT_EQ(export_string(replayed->dataset), export_string(original))
            << tag << " session " << id << " shards=" << shards
            << " threads=" << threads;

        // QoE through the same join the analysis tools use must be
        // bit-identical too.
        const telemetry::JoinedDataset joined =
            telemetry::JoinedDataset::build(original);
        ASSERT_EQ(joined.sessions().size(), 1u) << tag << " session " << id;
        const analysis::SessionQoe original_qoe =
            analysis::session_qoe(joined.sessions().front());
        EXPECT_EQ(replayed->qoe.startup_ms, original_qoe.startup_ms);
        EXPECT_EQ(replayed->qoe.rebuffer_rate_pct,
                  original_qoe.rebuffer_rate_pct);
        EXPECT_EQ(replayed->qoe.rebuffer_events, original_qoe.rebuffer_events);
        EXPECT_EQ(replayed->qoe.avg_bitrate_kbps,
                  original_qoe.avg_bitrate_kbps);
        EXPECT_EQ(replayed->qoe.dropped_frame_pct,
                  original_qoe.dropped_frame_pct);
        EXPECT_EQ(replayed->qoe.chunks, original_qoe.chunks);
      }
    }
  }
}

TEST(ReplayDeterminismTest, FactualReplayMatchesFullRunFaultFree) {
  expect_replay_matches_cells(faults::FaultSchedule(), "fault-free");
}

TEST(ReplayDeterminismTest, FactualReplayMatchesFullRunUnderFaults) {
  expect_replay_matches_cells(eventful_schedule(), "faulted");
}

TEST(ReplayDeterminismTest, UnknownSessionIdIsRejected) {
  const engine::ReplayContext ctx(small_scenario());
  EXPECT_FALSE(ctx.replay_session(~std::uint64_t{0}).has_value());
}

TEST(EngineDeterminismTest, RunAndAnalyzeJoinsMergedDataset) {
  const workload::Scenario scenario = small_scenario();
  engine::RunOptions options;
  options.shards = 4;
  const engine::AnalyzedRun analyzed =
      engine::run_and_analyze(scenario, options);
  EXPECT_FALSE(analyzed.joined.sessions().empty());
  // Every joined session's records must point into the run's own dataset
  // (the join is built after the merge, not per shard).
  EXPECT_LE(analyzed.joined.sessions().size(),
            analyzed.run.dataset.player_sessions.size());
}

}  // namespace
}  // namespace vstream
