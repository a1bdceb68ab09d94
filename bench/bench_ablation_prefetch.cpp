// Ablation (§4.1-2 take-away): "the persistence of cache misses could be
// addressed by pre-fetching the subsequent chunks of a video session after
// the first miss."  Compare prefetch depths on the same workload: session
// miss persistence collapses, at the cost of extra backend requests.
#include "bench_common.h"

using namespace vstream;

namespace {

struct PrefetchStats {
  double overall_miss_pct = 0.0;
  double conditional_miss_ratio = 0.0;  ///< mean miss ratio | >= 1 miss
  double backend_per_1k_chunks = 0.0;
  double mean_rebuffer_pct = 0.0;
};

PrefetchStats run_with(std::uint32_t prefetch_depth) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.fleet.server.prefetch_on_miss = prefetch_depth;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const telemetry::JoinedDataset& joined = run.joined;

  PrefetchStats stats;
  double chunks = 0.0, misses = 0.0, rebuf = 0.0;
  std::vector<double> conditional;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    std::size_t session_misses = 0;
    for (const telemetry::JoinedChunk& c : s.chunks) {
      if (c.cdn != nullptr && !c.cdn->cache_hit()) ++session_misses;
    }
    chunks += static_cast<double>(s.chunks.size());
    misses += static_cast<double>(session_misses);
    rebuf += s.rebuffer_rate_percent();
    if (session_misses > 0) {
      conditional.push_back(static_cast<double>(session_misses) /
                            static_cast<double>(s.chunks.size()));
    }
  }
  stats.overall_miss_pct = 100.0 * misses / chunks;
  stats.conditional_miss_ratio = analysis::mean_of(conditional);
  stats.mean_rebuffer_pct =
      rebuf / static_cast<double>(joined.sessions().size());

  std::uint64_t backend = 0;
  for (const cdn::ServerStats& server : run.run.server_stats) {
    backend += server.backend_requests();
  }
  stats.backend_per_1k_chunks = 1'000.0 * static_cast<double>(backend) / chunks;
  return stats;
}

}  // namespace

int main() {
  core::print_header("Ablation: prefetch-on-miss depth");
  core::Table out({"prefetch", "miss %", "miss ratio | >=1 miss",
                   "backend req / 1k chunks", "mean rebuffer %"});
  for (const std::uint32_t depth : {0u, 2u, 4u, 8u}) {
    const PrefetchStats s = run_with(depth);
    out.add_row({std::to_string(depth), core::fmt(s.overall_miss_pct, 2),
                 core::fmt(s.conditional_miss_ratio, 3),
                 core::fmt(s.backend_per_1k_chunks, 1),
                 core::fmt(s.mean_rebuffer_pct, 3)});
  }
  out.print();
  core::print_paper_reference(
      "§4.1-2 take-away: after the first miss, later misses are likely "
      "(~60% conditional miss ratio); prefetching the following chunks "
      "breaks the persistence at the cost of backend load");
  return 0;
}
