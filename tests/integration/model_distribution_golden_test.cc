// Distributional golden for the paper scenario.
//
// Byte goldens (tests/engine/serve_equivalence_test.cc) pin the exact RNG
// stream, so any deliberate model change breaks them.  This golden pins
// behaviour instead: the p10/p50/p90/p99 of the headline QoE and transport
// metrics of one fixed paper_scenario run, and a fresh run must agree with
// them within a two-sample Kolmogorov-Smirnov bound set by the sample
// sizes.  A model change that keeps the distributions passes; one that
// moves them fails, and the negative control below proves the bound has the
// power to see a real change in path loss.
//
// The table was captured before TCP losses were sampled once per round
// (binomial count) instead of once per segment, and still holds after.
// The test prints the fresh table on every run; to re-bless after a
// deliberate distribution change, paste the printed rows over kGolden and
// say why in the commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/qoe.h"
#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

constexpr std::size_t kSessions = 3'000;
constexpr std::array<double, 4> kQuantiles = {0.10, 0.50, 0.90, 0.99};

enum Metric : std::size_t {
  kStartupMs,
  kRebufferPct,
  kBitrateKbps,
  kDroppedFramePct,
  kChunkRetransmissions,
  kChunkSrttMs,
  kMetricCount,
};

constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "startup_ms",         "rebuffer_pct",          "avg_bitrate_kbps",
    "dropped_frame_pct",  "chunk_retransmissions", "chunk_srtt_ms"};

using QuantileTable = std::array<std::array<double, 4>, kMetricCount>;

// Joined (non-proxy) sessions of the captured run: the golden sample size.
constexpr std::size_t kGoldenJoinedSessions = 2963;

// Nearest-rank quantiles at kQuantiles, printed by the test itself.
constexpr QuantileTable kGolden = {{
    {535.623, 968.965, 2059.04, 4160.54},      // startup_ms
    {0, 0, 2.75663, 53.5594},                  // rebuffer_pct
    {2371.43, 5337.5, 5870.73, 5960.45},       // avg_bitrate_kbps
    {0.111111, 1.48148, 12.7778, 63.4141},     // dropped_frame_pct
    {0, 0, 4, 25},                             // chunk_retransmissions
    {39.8656, 92.9808, 209.284, 926.025},      // chunk_srtt_ms
}};

struct Samples {
  std::array<std::vector<double>, kMetricCount> values;
  std::size_t sessions = 0;
};

Samples run_paper_scenario(const faults::FaultSchedule& faults) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = kSessions;
  engine::RunOptions options;
  options.faults = faults;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario, options);

  Samples samples;
  samples.sessions = run.joined.sessions().size();
  auto& v = samples.values;
  for (const telemetry::JoinedSession& session : run.joined.sessions()) {
    const analysis::SessionQoe qoe = analysis::session_qoe(session);
    v[kStartupMs].push_back(qoe.startup_ms);
    v[kRebufferPct].push_back(qoe.rebuffer_rate_pct);
    v[kBitrateKbps].push_back(qoe.avg_bitrate_kbps);
    v[kDroppedFramePct].push_back(qoe.dropped_frame_pct);
    for (const telemetry::JoinedChunk& chunk : session.chunks) {
      v[kChunkRetransmissions].push_back(
          static_cast<double>(chunk.retransmissions));
      if (chunk.last_snapshot != nullptr) {
        v[kChunkSrttMs].push_back(chunk.last_snapshot->info.srtt_ms);
      }
    }
  }
  for (auto& metric : v) std::sort(metric.begin(), metric.end());
  return samples;
}

/// Nearest-rank quantile of a sorted sample: the smallest x with
/// CDF(x) >= q.
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Lower bound on the two-sample KS distance between a fresh sorted sample
/// and the golden sample, from the golden quantiles alone.  At a golden
/// nearest-rank q-quantile x the golden CDF is >= q at x and < q just below
/// it, so a fresh CDF below q - d at x, or above q + d just below x, puts the
/// two CDFs more than d apart.  Ties (most chunks retransmit nothing) are
/// why both sides are checked.
double quantile_gap(const std::vector<double>& sorted,
                    const std::array<double, 4>& golden) {
  const auto n = static_cast<double>(sorted.size());
  double gap = 0.0;
  for (std::size_t i = 0; i < kQuantiles.size(); ++i) {
    const double below =
        static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(),
                                             golden[i]) -
                            sorted.begin()) /
        n;
    const double at_or_below =
        static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(),
                                             golden[i]) -
                            sorted.begin()) /
        n;
    gap = std::max({gap, below - kQuantiles[i], kQuantiles[i] - at_or_below});
  }
  return gap;
}

/// Two-sample KS critical distance at alpha = 1e-3 for samples of n and m
/// sessions: c * sqrt((n + m) / (n m)) with c = sqrt(-ln(alpha / 2) / 2).
/// Chunk metrics use the session counts too: chunks of one session share a
/// path and a client, so they are not independent draws.
double ks_bound(std::size_t n, std::size_t m) {
  const double c = std::sqrt(-std::log(1e-3 / 2.0) / 2.0);
  const auto dn = static_cast<double>(n);
  const auto dm = static_cast<double>(m);
  return c * std::sqrt((dn + dm) / (dn * dm));
}

void print_table(const char* label, const Samples& samples) {
  std::printf("%s: joined sessions %zu\n", label, samples.sessions);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto& sorted = samples.values[m];
    std::printf("    {%.6g, %.6g, %.6g, %.6g},  // %s\n",
                quantile(sorted, kQuantiles[0]), quantile(sorted, kQuantiles[1]),
                quantile(sorted, kQuantiles[2]), quantile(sorted, kQuantiles[3]),
                kMetricNames[m]);
  }
}

TEST(ModelDistributionGolden, PaperScenarioMatchesCapturedQuantiles) {
  const Samples fresh = run_paper_scenario({});
  print_table("fresh", fresh);
  ASSERT_GT(fresh.sessions, kSessions * 9 / 10);
  const double bound = ks_bound(fresh.sessions, kGoldenJoinedSessions);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    ASSERT_FALSE(fresh.values[m].empty()) << kMetricNames[m];
    const double gap = quantile_gap(fresh.values[m], kGolden[m]);
    std::printf("%s: gap %.4f, bound %.4f\n", kMetricNames[m], gap, bound);
    EXPECT_LE(gap, bound) << kMetricNames[m]
                          << " moved beyond the sampling bound";
  }
}

// Negative control: the same world with clearly higher path loss (an extra
// 1% random loss on every client path for the whole run) must fail the
// comparison on retransmissions and re-buffering, or the bound is too loose
// to catch a real model change.
TEST(ModelDistributionGolden, HigherPathLossExceedsTheBound) {
  const faults::FaultSchedule lossy = faults::FaultSchedule::scripted(
      {{faults::FaultKind::kLossBurst, 0.0, 1e12, 0, 0, 0.01}});
  const Samples fresh = run_paper_scenario(lossy);
  print_table("lossy", fresh);
  const double bound = ks_bound(fresh.sessions, kGoldenJoinedSessions);
  for (const Metric m : {kChunkRetransmissions, kRebufferPct}) {
    const double gap = quantile_gap(fresh.values[m], kGolden[m]);
    std::printf("%s: gap %.4f, bound %.4f\n", kMetricNames[m], gap, bound);
    EXPECT_GT(gap, bound) << kMetricNames[m]
                          << " did not register 1% extra path loss";
  }
}

}  // namespace
}  // namespace vstream
