// Ablation (§4.3-3 / §4.1-2 take-aways): "cache the first chunk of every
// video ... to reduce the startup delay."  Compare startup-time tails with
// and without universally pinned video heads.
#include "bench_common.h"

using namespace vstream;

namespace {

struct HeadCacheStats {
  double startup_median_ms = 0.0;
  double startup_p95_ms = 0.0;
  double first_chunk_miss_pct = 0.0;
};

HeadCacheStats run_with(bool universal_head) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  engine::RunOptions options;
  options.universal_head = universal_head;
  const engine::AnalyzedRun run =
      engine::run_and_analyze(scenario, std::move(options));
  const telemetry::JoinedDataset& joined = run.joined;

  std::vector<double> startup;
  std::size_t first_chunks = 0, first_misses = 0;
  std::unordered_map<std::uint64_t, double> startup_by_session;
  for (const auto& ps : run.run.dataset.player_sessions) {
    startup_by_session[ps.session_id] = ps.startup_ms;
  }
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    startup.push_back(startup_by_session[s.session_id]);
    if (!s.chunks.empty() && s.chunks[0].cdn != nullptr) {
      ++first_chunks;
      if (!s.chunks[0].cdn->cache_hit()) ++first_misses;
    }
  }

  HeadCacheStats stats;
  const analysis::SummaryStats summary = analysis::summarize(std::move(startup));
  stats.startup_median_ms = summary.median;
  stats.startup_p95_ms = summary.p95;
  stats.first_chunk_miss_pct =
      first_chunks == 0 ? 0.0
                        : 100.0 * static_cast<double>(first_misses) /
                              static_cast<double>(first_chunks);
  return stats;
}

}  // namespace

int main() {
  core::print_header("Ablation: universally cached video heads");
  core::Table out({"warm policy", "first-chunk miss %", "startup median ms",
                   "startup p95 ms"});
  for (const bool universal : {false, true}) {
    const HeadCacheStats s = run_with(universal);
    out.add_row({universal ? "heads of ALL videos" : "steady-state LRU",
                 core::fmt(s.first_chunk_miss_pct, 2),
                 core::fmt(s.startup_median_ms, 0),
                 core::fmt(s.startup_p95_ms, 0)});
  }
  out.print();
  core::print_paper_reference(
      "§4.3-3 take-away: caching the first chunk of every video removes "
      "the server-side component from the startup tail");
  return 0;
}
