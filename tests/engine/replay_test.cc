// Counterfactual replay and attribution: the idealization hooks do what
// they claim, the blame math stays normalized, and the worst-N
// orchestration is deterministic for any thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "analysis/attribution.h"
#include "core/streaming.h"
#include "engine/attribution.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "faults/fault_schedule.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

workload::Scenario replay_scenario() {
  workload::Scenario s = workload::test_scenario();
  s.session_count = 120;
  return s;
}

/// Every degraded regime at once: overload (shedding, breaker), backend
/// brownout + outage, a crash, a loss burst and a slow disk.
faults::FaultSchedule stress_schedule() {
  return faults::FaultSchedule::scripted({
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 0, 3.0},
      {faults::FaultKind::kOverload, 2'000.0, 90'000.0, 0, 1, 3.0},
      {faults::FaultKind::kBackendSlowdown, 10'000.0, 60'000.0, 0, 0, 8.0},
      {faults::FaultKind::kServerCrash, 5'000.0, 60'000.0, 0, 2, 1.0},
      {faults::FaultKind::kBackendOutage, 70'000.0, 20'000.0, 0, 0, 1.0},
      {faults::FaultKind::kLossBurst, 30'000.0, 30'000.0, 0, 0, 0.05},
      {faults::FaultKind::kDiskDegradation, 40'000.0, 40'000.0, 1, 0, 8.0},
  });
}

engine::RunOptions stress_options() {
  engine::RunOptions options;
  options.shards = 4;
  options.faults = stress_schedule();
  return options;
}

class IdealizationReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new workload::Scenario(replay_scenario());
    ctx_ = new engine::ReplayContext(*scenario_, stress_options());
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete scenario_;
    ctx_ = nullptr;
    scenario_ = nullptr;
  }

  static engine::ReplayedSession replay(std::uint64_t id,
                                        cdn::IdealizedSubsystem target) {
    cdn::IdealizationPolicy policy;
    policy.target = target;
    const auto result = ctx_->replay_session(id, policy);
    EXPECT_TRUE(result.has_value());
    return *result;
  }

  static workload::Scenario* scenario_;
  static engine::ReplayContext* ctx_;
};

workload::Scenario* IdealizationReplayTest::scenario_ = nullptr;
engine::ReplayContext* IdealizationReplayTest::ctx_ = nullptr;

TEST_F(IdealizationReplayTest, IdealCacheServesEverythingFromRam) {
  for (const auto& session : ctx_->admitted()) {
    const engine::ReplayedSession ideal =
        replay(session.spec.session_id, cdn::IdealizedSubsystem::kCache);
    for (const auto& chunk : ideal.dataset.cdn_chunks) {
      EXPECT_EQ(chunk.cache_level, cdn::CacheLevel::kRam)
          << "session " << session.spec.session_id << " chunk "
          << chunk.chunk_id;
      EXPECT_EQ(chunk.dbe_ms, 0.0) << "RAM hits never touch the backend";
    }
    if (session.spec.session_id > 40) break;  // a prefix is plenty
  }
}

TEST_F(IdealizationReplayTest, InstantBackendHasZeroBackendLatency) {
  for (const auto& session : ctx_->admitted()) {
    const engine::ReplayedSession ideal =
        replay(session.spec.session_id, cdn::IdealizedSubsystem::kBackend);
    for (const auto& chunk : ideal.dataset.cdn_chunks) {
      EXPECT_EQ(chunk.dbe_ms, 0.0)
          << "session " << session.spec.session_id << " chunk "
          << chunk.chunk_id;
      EXPECT_FALSE(chunk.served_stale) << "an instant backend is never down";
    }
    if (session.spec.session_id > 40) break;
  }
}

TEST_F(IdealizationReplayTest, NoOverloadNeverShedsOrDenies) {
  for (const auto& session : ctx_->admitted()) {
    const engine::ReplayedSession ideal =
        replay(session.spec.session_id, cdn::IdealizedSubsystem::kOverload);
    for (const auto& chunk : ideal.dataset.cdn_chunks) {
      EXPECT_FALSE(chunk.shed);
      EXPECT_FALSE(chunk.budget_denied);
      EXPECT_EQ(chunk.breaker, cdn::BreakerState::kClosed);
    }
    if (session.spec.session_id > 40) break;
  }
}

TEST_F(IdealizationReplayTest, OracleAbrPicksTheSustainableRung) {
  // The oracle picks one rung per session — the highest with 15% delivery
  // headroom at the true bottleneck — and never switches mid-session.
  std::size_t sessions_checked = 0;
  for (const auto& session : ctx_->admitted()) {
    const engine::ReplayedSession ideal =
        replay(session.spec.session_id, cdn::IdealizedSubsystem::kAbr);
    std::set<std::uint32_t> rates;
    for (const auto& chunk : ideal.dataset.player_chunks) {
      rates.insert(chunk.bitrate_kbps);
    }
    if (!rates.empty()) {
      EXPECT_EQ(rates.size(), 1u)
          << "session " << session.spec.session_id
          << ": the oracle never switches";
      ++sessions_checked;
    }
    if (session.spec.session_id > 40) break;
  }
  EXPECT_GT(sessions_checked, 0u);
}

TEST_F(IdealizationReplayTest, LosslessNetworkReplaysAndDiffersFromFactual) {
  // Structural zero-loss assertions live in the transport tests; here the
  // counterfactual must at least run every session to completion and, in
  // aggregate, move the needle somewhere (the stress schedule includes a
  // loss burst).
  bool any_difference = false;
  for (const auto& session : ctx_->admitted()) {
    const std::uint64_t id = session.spec.session_id;
    const auto factual = ctx_->replay_session(id);
    const engine::ReplayedSession ideal =
        replay(id, cdn::IdealizedSubsystem::kNetwork);
    ASSERT_TRUE(factual.has_value());
    any_difference |= ideal.qoe.rebuffer_rate_pct !=
                          factual->qoe.rebuffer_rate_pct ||
                      ideal.qoe.avg_bitrate_kbps !=
                          factual->qoe.avg_bitrate_kbps ||
                      ideal.qoe.startup_ms != factual->qoe.startup_ms;
    if (id > 40) break;
  }
  EXPECT_TRUE(any_difference);
}

// -------------------------------------------------------------------
// Blame math (analysis/attribution.h) is pure arithmetic; pin it.

TEST(AttributionMathTest, PenaltyWeighsAllThreeComponents) {
  analysis::SessionQoe qoe;
  qoe.startup_ms = 2'000.0;        // 2 penalty
  qoe.rebuffer_rate_pct = 3.0;     // 3 penalty
  qoe.avg_bitrate_kbps = 4'000.0;  // deficit 2 Mbps -> 2 penalty
  EXPECT_DOUBLE_EQ(analysis::qoe_penalty(qoe), 7.0);

  qoe.avg_bitrate_kbps = 9'000.0;  // above the top rung: no deficit
  EXPECT_DOUBLE_EQ(analysis::qoe_penalty(qoe), 5.0);
}

TEST(AttributionMathTest, WorstSessionsSortsByPenaltyDescending) {
  std::vector<analysis::SessionQoeRow> rows(4);
  rows[0].qoe.startup_ms = 1'000.0;
  rows[1].qoe.startup_ms = 9'000.0;
  rows[2].qoe.startup_ms = 5'000.0;
  rows[3].qoe.startup_ms = 9'000.0;  // tie with 1 -> lower index first
  const auto worst = analysis::worst_sessions(rows, 3);
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0], 1u);
  EXPECT_EQ(worst[1], 3u);
  EXPECT_EQ(worst[2], 2u);
  EXPECT_EQ(analysis::worst_sessions(rows, 10).size(), 4u);
}

TEST(AttributionMathTest, BlameFractionsSumToAtMostOne) {
  // Heavily overlapping improvements: every subsystem claims nearly the
  // whole penalty.  Normalization must cap the total at 1.
  const double ideals[cdn::kIdealizedSubsystemCount] = {1.0, 1.0, 1.0, 1.0,
                                                        1.0};
  const auto a = analysis::attribute_session(7, 10.0, ideals);
  EXPECT_EQ(a.session_id, 7u);
  double sum = 0.0;
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    EXPECT_GE(a.blame[i], 0.0);
    EXPECT_LE(a.blame[i], 1.0);
    sum += a.blame[i];
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
  EXPECT_NEAR(sum + a.residual, 1.0, 1e-12);
}

TEST(AttributionMathTest, DisjointBlameLeavesResidual) {
  // One subsystem explains 4 of 10 penalty points, another 2; the missing
  // 4 are residual.
  const double ideals[cdn::kIdealizedSubsystemCount] = {6.0, 8.0, 10.0, 10.0,
                                                        12.0};
  const auto a = analysis::attribute_session(1, 10.0, ideals);
  EXPECT_DOUBLE_EQ(a.blame[0], 0.4);
  EXPECT_DOUBLE_EQ(a.blame[1], 0.2);
  EXPECT_DOUBLE_EQ(a.blame[2], 0.0);
  EXPECT_DOUBLE_EQ(a.blame[4], 0.0);  // a worse ideal never earns blame
  EXPECT_DOUBLE_EQ(a.residual, 0.4);
}

TEST(AttributionMathTest, ZeroPenaltySessionHasNoBlame) {
  const double ideals[cdn::kIdealizedSubsystemCount] = {0.0, 0.0, 0.0, 0.0,
                                                        0.0};
  const auto a = analysis::attribute_session(2, 0.0, ideals);
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    EXPECT_EQ(a.blame[i], 0.0);
  }
  EXPECT_EQ(a.residual, 0.0);
}

// The JSON report carries each blame fraction exactly, so a reader can
// check "sum <= 1" on the parsed values: at six significant digits these
// fractions (sum 1 in doubles) would read 1.0000008.
TEST(AttributionMathTest, JsonBlameRoundTripsExactly) {
  const double ideals[cdn::kIdealizedSubsystemCount] = {2.0, 1.0, 2.5, 3.0,
                                                        2.9};
  analysis::AttributionReport report;
  report.sessions.push_back(analysis::attribute_session(3, 3.0, ideals));
  std::ostringstream json;
  json << 0.25;  // the caller's stream precision is restored afterwards
  const std::streamsize before = json.precision();
  analysis::write_attribution_json(json, report);
  EXPECT_EQ(json.precision(), before);
  const std::string doc = json.str();
  const std::size_t blame = doc.find("\"blame\": {");
  ASSERT_NE(blame, std::string::npos);
  double sum = 0.0;
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    const std::string key =
        "\"" +
        std::string(cdn::idealization_name(cdn::kIdealizedSubsystems[i])) +
        "\": ";
    const std::size_t at = doc.find(key, blame);
    ASSERT_NE(at, std::string::npos) << key;
    const double parsed = std::strtod(doc.c_str() + at + key.size(), nullptr);
    EXPECT_EQ(parsed, report.sessions[0].blame[i]) << key;
    sum += parsed;
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
}

// -------------------------------------------------------------------
// The full worst-N pass.

TEST(AttributeWorstTest, ReportIsWellFormedAndBaselineExact) {
  const workload::Scenario scenario = replay_scenario();
  const engine::RunResult run =
      engine::run_simulation(scenario, stress_options());
  const engine::ReplayContext ctx(scenario, stress_options());

  engine::AttributionOptions options;
  options.worst_n = 8;
  const analysis::AttributionReport report =
      engine::attribute_worst(ctx, run.dataset, options);

  ASSERT_EQ(report.sessions.size(), 8u);
  EXPECT_GT(report.sessions_analyzed, 8u);
  double previous = report.sessions.front().baseline_penalty;
  for (const analysis::SessionAttribution& s : report.sessions) {
    // The factual replay must reproduce the measured QoE bit-exactly.
    EXPECT_TRUE(s.baseline_matches) << "session " << s.session_id;
    EXPECT_LE(s.baseline_penalty, previous) << "worst first";
    previous = s.baseline_penalty;
    double sum = 0.0;
    for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
      EXPECT_GE(s.blame[i], 0.0);
      sum += s.blame[i];
    }
    EXPECT_LE(sum, 1.0 + 1e-12) << "session " << s.session_id;
  }

  // Thread-count invariance: the replay matrix writes indexed slots, so
  // the report is identical for any pool size.
  engine::AttributionOptions serial = options;
  serial.threads = 1;
  const analysis::AttributionReport again =
      engine::attribute_worst(ctx, run.dataset, serial);
  ASSERT_EQ(again.sessions.size(), report.sessions.size());
  for (std::size_t i = 0; i < report.sessions.size(); ++i) {
    EXPECT_EQ(again.sessions[i].session_id, report.sessions[i].session_id);
    EXPECT_EQ(again.sessions[i].baseline_penalty,
              report.sessions[i].baseline_penalty);
    for (std::size_t k = 0; k < cdn::kIdealizedSubsystemCount; ++k) {
      EXPECT_EQ(again.sessions[i].blame[k], report.sessions[i].blame[k]);
    }
  }

  // The JSON document carries the schema tag and every subsystem key.
  std::ostringstream json;
  analysis::write_attribution_json(json, report);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"vstream-attribution-v1\""), std::string::npos);
  for (const auto subsystem : cdn::kIdealizedSubsystems) {
    EXPECT_NE(doc.find(cdn::idealization_name(subsystem)), std::string::npos);
  }
  EXPECT_NE(doc.find("\"mean_blame\""), std::string::npos);
  EXPECT_NE(doc.find("\"residual\""), std::string::npos);
}

TEST(AttributeWorstTest, SpilledRowsMatchTheDatasetOverload) {
  // A spilled run ranks the session_qoe rows analyze_spill folded; an
  // in-memory run ranks its dataset's unfiltered join.  Same run, same
  // report.
  const workload::Scenario scenario = replay_scenario();
  const engine::RunResult memory =
      engine::run_simulation(scenario, stress_options());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vstream_replay_spilled_rows";
  std::filesystem::remove_all(dir);
  engine::RunOptions spill_options = stress_options();
  spill_options.telemetry_spill_dir = dir.string();
  const engine::RunResult spilled =
      engine::run_simulation(scenario, spill_options);
  ASSERT_TRUE(spilled.spilled());
  const core::StreamingAnalysis streamed =
      core::analyze_spill(spilled.spill, spilled.catalog->chunk_duration_s());
  EXPECT_EQ(streamed.session_qoe.size(),
            streamed.sessions_joined + streamed.dropped_as_proxy);

  const engine::ReplayContext ctx(scenario, stress_options());
  engine::AttributionOptions options;
  options.worst_n = 5;
  const analysis::AttributionReport from_rows =
      engine::attribute_worst(ctx, streamed.session_qoe, options);
  const analysis::AttributionReport from_dataset =
      engine::attribute_worst(ctx, memory.dataset, options);

  ASSERT_EQ(from_rows.sessions.size(), 5u);
  EXPECT_EQ(from_rows.sessions_analyzed, from_dataset.sessions_analyzed);
  ASSERT_EQ(from_rows.sessions.size(), from_dataset.sessions.size());
  for (std::size_t i = 0; i < from_rows.sessions.size(); ++i) {
    const analysis::SessionAttribution& a = from_rows.sessions[i];
    const analysis::SessionAttribution& b = from_dataset.sessions[i];
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.baseline_penalty, b.baseline_penalty);
    EXPECT_TRUE(a.baseline_matches) << "session " << a.session_id;
    EXPECT_EQ(a.baseline_matches, b.baseline_matches);
    EXPECT_EQ(a.residual, b.residual);
    for (std::size_t k = 0; k < cdn::kIdealizedSubsystemCount; ++k) {
      EXPECT_EQ(a.ideal_penalty[k], b.ideal_penalty[k]);
      EXPECT_EQ(a.blame[k], b.blame[k]);
    }
  }
  std::ostringstream json_rows, json_dataset;
  analysis::write_attribution_json(json_rows, from_rows);
  analysis::write_attribution_json(json_dataset, from_dataset);
  EXPECT_EQ(json_rows.str(), json_dataset.str());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vstream
