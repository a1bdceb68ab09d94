// Fault matrix: sweep fault type x injection rate and measure what the
// recovery machinery (timeouts, capped backoff, mid-session failover,
// graceful degradation) salvages.  The paper only *observes* incident
// fallout ("directing client requests to different servers", §1/§4.1);
// here the incidents are controlled, so availability and QoE cost can be
// charted against failure intensity.
#include "bench_common.h"
#include "faults/fault_schedule.h"

using namespace vstream;

namespace {

struct Cell {
  double completion_pct = 0.0;
  double rebuffer_pct = 0.0;
  double mean_recovery_ms = 0.0;
  std::uint64_t retries = 0;
  std::size_t failover_sessions = 0;
  std::uint64_t stale_chunks = 0;
};

faults::StochasticFaultConfig config_for(const std::string& kind, double rate) {
  faults::StochasticFaultConfig config;
  config.horizon_ms = sim::seconds(3'600.0);
  if (kind == "server crash") {
    config.server_crashes_per_hour = rate;
  } else if (kind == "pop blackout") {
    config.pop_blackouts_per_hour = rate;
  } else if (kind == "backend outage") {
    config.backend_outages_per_hour = rate;
  } else if (kind == "backend slowdown") {
    config.backend_slowdowns_per_hour = rate;
  } else if (kind == "disk degradation") {
    config.disk_degradations_per_hour = rate;
  } else if (kind == "loss burst") {
    config.loss_bursts_per_hour = rate;
  }
  return config;
}

Cell run_cell(const std::string& kind, double rate, std::size_t sessions) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = sessions;
  engine::RunOptions options;
  if (rate > 0.0) {
    // The schedule draws from its own generator so every cell streams the
    // identical session population; only the faults differ.
    sim::Rng fault_rng(scenario.seed ^ 0xFA0175ULL);
    options.faults = faults::FaultSchedule::stochastic(
        config_for(kind, rate), scenario.fleet.pop_count,
        scenario.fleet.servers_per_pop, fault_rng);
  }
  const engine::RunResult run =
      engine::run_simulation(scenario, std::move(options));
  const auto joined = telemetry::JoinedDataset::build(run.dataset);
  const analysis::RecoveryImpact impact = analysis::recovery_impact(joined);

  Cell cell;
  cell.completion_pct = 100.0 * impact.completion_rate();
  cell.rebuffer_pct = impact.rebuffer_rate_percent;
  cell.mean_recovery_ms = impact.mean_recovery_ms;
  cell.retries = impact.retries;
  cell.failover_sessions = impact.failover_sessions;
  cell.stale_chunks = impact.stale_chunks;
  return cell;
}

}  // namespace

int main() {
  const std::size_t sessions = bench::bench_session_count(800);
  core::print_header("Fault matrix: type x rate vs availability and QoE");

  const std::vector<std::string> kinds = {
      "server crash",   "pop blackout",     "backend outage",
      "backend slowdown", "disk degradation", "loss burst"};
  const std::vector<double> rates = {0.0, 2.0, 8.0};

  core::Table out({"fault kind", "rate/h", "completed %", "rebuffer %",
                   "mean recovery ms", "retries", "failover sessions",
                   "stale chunks"});
  double worst_completion = 100.0;
  for (const std::string& kind : kinds) {
    for (const double rate : rates) {
      if (rate == 0.0 && kind != kinds.front()) continue;  // one baseline row
      const Cell cell = run_cell(kind, rate, sessions);
      worst_completion = std::min(worst_completion, cell.completion_pct);
      out.add_row({rate == 0.0 ? "none (baseline)" : kind, core::fmt(rate, 0),
                   core::fmt(cell.completion_pct, 1),
                   core::fmt(cell.rebuffer_pct, 3),
                   core::fmt(cell.mean_recovery_ms, 0),
                   std::to_string(cell.retries),
                   std::to_string(cell.failover_sessions),
                   std::to_string(cell.stale_chunks)});
    }
  }
  out.print();
  core::print_metric("worst_completion_pct", worst_completion);
  core::print_paper_reference(
      "§1/§4.1: the service recovers from incidents by re-directing clients; "
      "the matrix quantifies what each failure class costs when recovery is "
      "timeouts + backoff + failover instead of operator action");
  return 0;
}
