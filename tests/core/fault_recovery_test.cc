// End-to-end failure recovery: faults strike mid-run, sessions retry, back
// off, fail over and (when nothing is left) abandon — and every run is a
// pure function of (scenario, schedule, seed).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/detectors.h"
#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "workload/scenario.h"

namespace vstream::engine {
namespace {

/// Serialize all five telemetry streams; equal strings == equal datasets.
std::string dataset_fingerprint(const telemetry::Dataset& data) {
  std::ostringstream out;
  telemetry::write_csv(out, data.player_sessions);
  telemetry::write_csv(out, data.cdn_sessions);
  telemetry::write_csv(out, data.player_chunks);
  telemetry::write_csv(out, data.cdn_chunks);
  telemetry::write_csv(out, data.tcp_snapshots);
  return out.str();
}

RunResult run_with_faults(const workload::Scenario& scenario,
                          faults::FaultSchedule schedule) {
  RunOptions options;
  options.faults = std::move(schedule);
  return run_simulation(scenario, std::move(options));
}

faults::FaultSchedule crash_and_outage_schedule() {
  return faults::FaultSchedule::scripted({
      // One server dies 3 s in and stays dead for 30 s...
      {faults::FaultKind::kServerCrash, 3'000.0, 30'000.0, 0, 0, 1.0},
      // ...and the origin becomes unreachable for 30 s while sessions are
      // still arriving (cache hits keep serving stale, misses fail fast).
      {faults::FaultKind::kBackendOutage, 8'000.0, 30'000.0, 0, 0, 1.0},
  });
}

TEST(FaultRecoveryTest, MidRunCrashAndOutageEndToEnd) {
  const workload::Scenario scenario = workload::test_scenario();
  const RunResult run = run_with_faults(scenario, crash_and_outage_schedule());

  // Every session terminated — abandoned ones included — never hung.
  const telemetry::Dataset& data = run.dataset;
  ASSERT_EQ(data.player_sessions.size(), scenario.session_count);
  ASSERT_EQ(data.cdn_sessions.size(), scenario.session_count);

  // Both injected epochs are on record (the timeouts and stale serves
  // below show they fired).
  EXPECT_EQ(run.ground_truth.injected_faults.size(), 2u);

  // Recovery machinery is visible in the player-side telemetry...
  std::uint64_t retries = 0, timeouts = 0, failover_chunks = 0;
  for (const telemetry::PlayerChunkRecord& r : data.player_chunks) {
    retries += r.retries;
    timeouts += r.timeouts;
    if (r.failed_over) ++failover_chunks;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(failover_chunks, 0u);

  // ...and is bounded by the simulator's ground truth.  (Abandoned chunks
  // retry and time out too but never emit a telemetry record, so ground
  // truth is a superset of what the player logs.)
  const GroundTruth& truth = run.ground_truth;
  EXPECT_GE(truth.chunk_retries, retries);
  EXPECT_GE(truth.request_timeouts, timeouts);
  EXPECT_GE(truth.failover_events, failover_chunks);
  EXPECT_GT(truth.failed_sessions, 0u);

  // Failover chunks paid for their recovery: measurably worse first-byte
  // delay than clean chunks (timeout + backoff + cold connection).
  const auto joined = telemetry::JoinedDataset::build(data);
  const analysis::RecoveryImpact impact = analysis::recovery_impact(joined);
  EXPECT_GT(impact.failover_sessions, 0u);
  EXPECT_GT(impact.mean_dfb_clean_ms, 0.0);
  EXPECT_GT(impact.mean_dfb_failover_ms, impact.mean_dfb_clean_ms + 100.0);
  EXPECT_GT(impact.mean_recovery_ms, 0.0);

  // Graceful degradation during the outage: cache hits kept serving and
  // were marked stale in the CDN logs.
  EXPECT_GT(impact.stale_chunks, 0u);

  // The same seed and schedule reproduce the dataset exactly.
  const RunResult again =
      run_with_faults(scenario, crash_and_outage_schedule());
  EXPECT_EQ(dataset_fingerprint(data), dataset_fingerprint(again.dataset));
}

TEST(FaultRecoveryTest, PopBlackoutFailsOverCrossPopAndRecovers) {
  const workload::Scenario scenario = workload::test_scenario();
  const RunResult run =
      run_with_faults(scenario, faults::FaultSchedule::scripted({
          {faults::FaultKind::kPopBlackout, 2'000.0, 6'000.0, 0, 0, 1.0},
      }));

  const telemetry::Dataset& data = run.dataset;
  ASSERT_EQ(data.player_sessions.size(), scenario.session_count);

  const auto joined = telemetry::JoinedDataset::build(data);
  // During the blackout, sessions assigned to PoP 0 were rescued by the
  // other PoP: their CDN chunk logs show a serving PoP different from the
  // session's original assignment.
  std::size_t cross_pop_sessions = 0;
  // After recovery (blackout ends at 8 s), late sessions stream from their
  // warm nominal assignment again: no failover, chunks on the session's own
  // server.
  std::size_t late_sessions = 0;
  for (const telemetry::JoinedSession& session : joined.sessions()) {
    bool crossed = false;
    for (const telemetry::JoinedChunk& chunk : session.chunks) {
      if (chunk.cdn->pop != session.cdn->pop) crossed = true;
    }
    if (crossed) ++cross_pop_sessions;
    if (session.player->start_time_ms > 9'000.0) {
      ++late_sessions;
      for (const telemetry::JoinedChunk& chunk : session.chunks) {
        EXPECT_FALSE(chunk.player->failed_over);
        EXPECT_EQ(chunk.cdn->pop, session.cdn->pop);
        EXPECT_EQ(chunk.cdn->server, session.cdn->server);
      }
    }
  }
  EXPECT_GT(cross_pop_sessions, 0u);
  EXPECT_GT(late_sessions, 0u);
}

TEST(FaultRecoveryTest, WholeFleetDarkSessionsAbandonButTerminate) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 60;  // all arrive within the dark window
  const RunResult run =
      run_with_faults(scenario, faults::FaultSchedule::scripted({
          {faults::FaultKind::kPopBlackout, 0.0, 120'000.0, 0, 0, 1.0},
          {faults::FaultKind::kPopBlackout, 0.0, 120'000.0, 1, 0, 1.0},
      }));

  const telemetry::Dataset& data = run.dataset;
  ASSERT_EQ(data.player_sessions.size(), scenario.session_count);
  // With nowhere to fail over, every session exhausts its retries and ends
  // incomplete — but *ends*.
  for (const telemetry::PlayerSessionRecord& session : data.player_sessions) {
    EXPECT_FALSE(session.completed);
    EXPECT_EQ(session.chunks_requested, 0u);
  }
  EXPECT_EQ(run.ground_truth.failed_sessions, scenario.session_count);
}

TEST(FaultRecoveryTest, StochasticScheduleIsBitForBitReproducible) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 150;

  faults::StochasticFaultConfig config;
  config.horizon_ms = sim::seconds(120.0);
  config.server_crashes_per_hour = 30.0;
  config.backend_outages_per_hour = 20.0;
  config.loss_bursts_per_hour = 60.0;

  const auto run_once = [&](std::uint64_t fault_seed) {
    sim::Rng fault_rng(fault_seed);
    return dataset_fingerprint(
        run_with_faults(scenario, faults::FaultSchedule::stochastic(
                                      config, scenario.fleet.pop_count,
                                      scenario.fleet.servers_per_pop,
                                      fault_rng))
            .dataset);
  };

  const std::string first = run_once(2016);
  const std::string second = run_once(2016);
  EXPECT_EQ(first, second) << "same seed must reproduce the dataset exactly";

  const std::string other = run_once(2017);
  EXPECT_NE(first, other) << "a different fault seed must perturb the run";
}

}  // namespace
}  // namespace vstream::engine
