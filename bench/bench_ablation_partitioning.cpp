// Ablation (§4.1-3 take-away): pure cache-focused routing vs explicitly
// partitioning the popular head across servers — load balance vs hit rate.
#include <cmath>

#include "bench_common.h"

using namespace vstream;

namespace {

struct FleetStats {
  double load_cv = 0.0;     ///< CV of per-server request counts within PoPs
  double miss_pct = 0.0;
  double ram_hit_pct = 0.0;
};

FleetStats run_with(cdn::RoutingPolicy routing) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.routing = routing;
  const engine::RunResult run = engine::run_simulation(scenario);

  FleetStats stats;
  const std::uint32_t servers_per_pop = scenario.fleet.servers_per_pop;
  std::vector<double> cvs;
  std::uint64_t ram = 0, miss = 0, total = 0;
  for (std::uint32_t pop = 0; pop < scenario.fleet.pop_count; ++pop) {
    std::vector<double> counts;
    for (std::uint32_t idx = 0; idx < servers_per_pop; ++idx) {
      const cdn::ServerStats& s = run.server_stats[pop * servers_per_pop + idx];
      counts.push_back(static_cast<double>(s.requests_served));
      ram += s.ram_hits;
      miss += s.misses;
      total += s.requests_served;
    }
    if (analysis::mean_of(counts) > 0.0) cvs.push_back(analysis::cv_of(counts));
  }
  stats.load_cv = analysis::mean_of(cvs);
  stats.miss_pct = 100.0 * static_cast<double>(miss) / static_cast<double>(total);
  stats.ram_hit_pct =
      100.0 * static_cast<double>(ram) / static_cast<double>(total);
  return stats;
}

}  // namespace

int main() {
  core::print_header("Ablation: client->server routing policy");
  core::Table out({"routing", "per-PoP load CV", "miss %", "ram-hit %"});
  for (const cdn::RoutingPolicy routing :
       {cdn::RoutingPolicy::kCacheFocused,
        cdn::RoutingPolicy::kPopularityPartitioned}) {
    const FleetStats s = run_with(routing);
    out.add_row({cdn::to_string(routing), core::fmt(s.load_cv, 3),
                 core::fmt(s.miss_pct, 2), core::fmt(s.ram_hit_pct, 2)});
  }
  out.print();
  core::print_paper_reference(
      "§4.1-3 take-away: distributing the top-10% head across servers "
      "balances load (lower load CV) at a modest cache cost — the head is "
      "small enough to replicate");
  return 0;
}
