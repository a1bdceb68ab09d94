// Overload sweep: push the fleet past nominal capacity (flash crowd) and
// chart what the server-side protection layer — priority load shedding,
// circuit breakers, retry budgets and hedged fetches — preserves.  The
// paper measures the healthy regime ("latency is NOT correlated with load",
// §4.1); this bench measures the unhealthy one the protection exists for:
// goodput should plateau near the shed watermark instead of collapsing,
// first-chunk latency should stay bounded (first chunks are never shed),
// and the shed ratio should grow monotonically with the overload factor.
#include "bench_common.h"

#include "analysis/qoe.h"
#include "faults/fault_schedule.h"

using namespace vstream;

namespace {

struct Row {
  double offered = 0.0;         ///< arrivals incl. shed turn-aways
  double admitted = 0.0;        ///< requests actually served
  double shed_pct = 0.0;
  double startup_p95_ms = 0.0;
  double rebuffer_pct = 0.0;
  std::uint64_t hedges = 0;
  std::uint64_t swr = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t budget_denied = 0;
};

/// A fleet-wide flash crowd: every server runs at `factor` times nominal
/// capacity for the whole campaign (the isolated serve path sheds purely
/// off this fault-driven factor, so the epoch must cover the run).
faults::FaultSchedule flash_crowd(const workload::Scenario& scenario,
                                  double factor) {
  std::vector<faults::FaultEvent> events;
  for (std::uint32_t pop = 0; pop < scenario.fleet.pop_count; ++pop) {
    for (std::uint32_t server = 0; server < scenario.fleet.servers_per_pop;
         ++server) {
      events.push_back({faults::FaultKind::kOverload, 0.0,
                        sim::seconds(24.0 * 3'600.0), pop, server, factor});
    }
  }
  return faults::FaultSchedule::scripted(std::move(events));
}

Row run_point(std::size_t sessions, std::uint64_t seed, double factor) {
  workload::Scenario scenario = workload::paper_scenario();
  // A flash crowd is more clients: scale the population by the same factor
  // the epochs advertise, and compress interarrivals to keep the campaign
  // window fixed — so offered load per wall-clock second rises with the
  // factor and "goodput plateau" is visible in absolute admitted requests.
  scenario.session_count =
      static_cast<std::size_t>(static_cast<double>(sessions) * factor);
  scenario.seed = seed;
  scenario.sessions.mean_interarrival_ms /= factor;

  engine::RunOptions options;
  if (factor > 1.0) options.faults = flash_crowd(scenario, factor);
  const engine::AnalyzedRun analyzed =
      engine::run_and_analyze(scenario, std::move(options));

  Row row;
  for (const cdn::ServerStats& s : analyzed.run.server_stats) {
    row.admitted += static_cast<double>(s.requests_served);
    row.offered +=
        static_cast<double>(s.requests_served + s.shed_requests);
    row.hedges += s.hedged_fetches;
    row.swr += s.swr_serves;
    row.breaker_trips += s.breaker_open_transitions;
    row.budget_denied += s.retry_budget_exhausted;
  }
  if (row.offered > 0.0) {
    row.shed_pct = 100.0 * (row.offered - row.admitted) / row.offered;
  }
  const analysis::QoeAggregate qoe = analysis::aggregate_qoe(analyzed.joined);
  row.startup_p95_ms = qoe.startup_ms.p95;
  row.rebuffer_pct = qoe.rebuffer_rate_pct.mean;
  return row;
}

}  // namespace

int main() {
  const std::size_t sessions = bench::bench_session_count(800);
  const std::uint64_t seed = bench::kBenchSeed;
  core::print_header("Overload protection: flash-crowd sweep");

  const std::vector<double> factors = {1.0, 2.0, 4.0, 8.0};
  std::vector<Row> rows;
  core::Table out({"overload x", "offered req", "admitted req", "shed %",
                   "startup p95 ms", "rebuffer %", "hedges", "swr",
                   "breaker trips", "budget denials"});
  for (const double factor : factors) {
    const Row row = run_point(sessions, seed, factor);
    out.add_row({core::fmt(factor, 0), core::fmt(row.offered, 0),
                 core::fmt(row.admitted, 0), core::fmt(row.shed_pct, 1),
                 core::fmt(row.startup_p95_ms, 0),
                 core::fmt(row.rebuffer_pct, 2), std::to_string(row.hedges),
                 std::to_string(row.swr), std::to_string(row.breaker_trips),
                 std::to_string(row.budget_denied)});
    rows.push_back(row);
  }
  out.print();

  // Graceful-degradation checks the driver greps for: (1) past the
  // watermark the shed ratio grows monotonically with the overload factor;
  // (2) admitted work (goodput) keeps growing sublinearly instead of
  // collapsing below the baseline; (3) first-chunk p95 stays bounded — the
  // shed policy never touches first chunks, so startup cannot blow up with
  // the overload factor.
  bool shed_monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].shed_pct < rows[i - 1].shed_pct) shed_monotone = false;
  }
  double worst_startup_p95 = 0.0;
  for (const Row& row : rows) {
    worst_startup_p95 = std::max(worst_startup_p95, row.startup_p95_ms);
  }
  core::print_metric("shed_ratio_monotone", shed_monotone ? 1.0 : 0.0);
  core::print_metric("goodput_vs_baseline_at_8x",
                     rows.back().admitted / rows.front().admitted);
  core::print_metric("worst_startup_p95_ms", worst_startup_p95);
  core::print_metric("startup_p95_ratio_8x_vs_1x",
                     rows.back().startup_p95_ms / rows.front().startup_p95_ms);
  core::print_paper_reference(
      "§4.1: the paper only observes the well-provisioned regime; the sweep "
      "shows the protection layer holding startup latency (Fig. 4's QoE "
      "anchor) while shedding the excess past the watermark");
  return 0;
}
