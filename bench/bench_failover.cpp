// Failover experiment: §1 lists "directing client requests to different
// servers" as a corrective action.  Under cache-focused routing that
// correction has a price — the failover target's cache was warmed for a
// different video set, so the rescued sessions land on cold content.
#include <limits>
#include <vector>

#include "bench_common.h"
#include "faults/fault_schedule.h"

using namespace vstream;

namespace {

struct FleetQoe {
  double miss_pct = 0.0;
  double startup_mean_ms = 0.0;
  double rebuffer_mean_pct = 0.0;
};

FleetQoe run_with(bool kill_one_server_per_pop) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  engine::RunOptions options;  // caches warmed for the healthy assignment
  if (kill_one_server_per_pop) {
    // Down from t = 0 for the whole run.
    std::vector<faults::FaultEvent> crashes;
    for (std::uint32_t pop = 0; pop < scenario.fleet.pop_count; ++pop) {
      crashes.push_back({faults::FaultKind::kServerCrash, 0.0,
                         std::numeric_limits<double>::infinity(), pop, 0, 1.0});
    }
    options.faults = faults::FaultSchedule::scripted(std::move(crashes));
  }
  const engine::AnalyzedRun run =
      engine::run_and_analyze(scenario, std::move(options));
  const telemetry::JoinedDataset& joined = run.joined;

  FleetQoe qoe;
  double misses = 0.0, chunks = 0.0, startup = 0.0, rebuf = 0.0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    for (const telemetry::JoinedChunk& c : s.chunks) {
      chunks += 1.0;
      if (!c.cdn->cache_hit()) misses += 1.0;
    }
    startup += s.player->startup_ms;
    rebuf += s.rebuffer_rate_percent();
  }
  const double n = static_cast<double>(joined.sessions().size());
  qoe.miss_pct = 100.0 * misses / chunks;
  qoe.startup_mean_ms = startup / n;
  qoe.rebuffer_mean_pct = rebuf / n;
  return qoe;
}

}  // namespace

int main() {
  core::print_header(
      "Failover: one server down per PoP (cache-focused routing)");
  core::Table out({"fleet", "chunk miss %", "mean startup ms",
                   "mean rebuffer %"});
  const FleetQoe healthy = run_with(false);
  out.add_row({"all servers up", core::fmt(healthy.miss_pct, 2),
               core::fmt(healthy.startup_mean_ms, 0),
               core::fmt(healthy.rebuffer_mean_pct, 3)});
  const FleetQoe degraded = run_with(true);
  out.add_row({"1 of 4 down per PoP", core::fmt(degraded.miss_pct, 2),
               core::fmt(degraded.startup_mean_ms, 0),
               core::fmt(degraded.rebuffer_mean_pct, 3)});
  out.print();
  core::print_metric("miss_pct_multiplier",
                     degraded.miss_pct / std::max(0.01, healthy.miss_pct));
  core::print_paper_reference(
      "§1/§4.1-3: re-directing clients rescues availability but lands ~25% "
      "of sessions on servers whose caches never held their videos — the "
      "cold-cache cost of cache-focused mapping");
  return 0;
}
