// Engagement experiment: the paper's QoE framing rests on prior findings
// that "video stream quality impacts viewer behavior" (Krishnan &
// Sitaraman [25]) and that re-buffering depresses engagement (Dobrian et
// al. [14]).  With QoE-sensitive abandonment enabled, the simulated
// viewers reproduce that relationship: sessions that stall watch less of
// their video.
#include "bench_common.h"

using namespace vstream;

namespace {

struct EngagementStats {
  double watched_fraction_stalled = 0.0;
  double watched_fraction_clean = 0.0;
  std::size_t stalled_sessions = 0;
  std::uint64_t abandonments = 0;
};

EngagementStats run_with(double abandonment_probability) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.sessions.abandon_probability = 0.0;  // isolate the QoE effect
  scenario.stall_abandonment_probability = abandonment_probability;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const telemetry::JoinedDataset& joined = run.joined;

  EngagementStats stats;
  stats.abandonments = run.run.ground_truth.stall_abandonments;
  std::vector<double> stalled, clean;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    if (s.player->video_duration_s <= 0.0) continue;
    const double tau = run.run.catalog->chunk_duration_s();
    const double watched = std::min(
        1.0, static_cast<double>(s.chunks.size()) * tau /
                 s.player->video_duration_s);
    (s.total_rebuffer_ms() > 0.0 ? stalled : clean).push_back(watched);
  }
  stats.stalled_sessions = stalled.size();
  stats.watched_fraction_stalled = analysis::mean_of(stalled);
  stats.watched_fraction_clean = analysis::mean_of(clean);
  return stats;
}

}  // namespace

int main() {
  core::print_header("Engagement: stalls vs watched fraction of the video");
  core::Table out({"P(abandon | stall)", "stalled sessions",
                   "watched (stalled)", "watched (clean)", "abandonments"});
  for (const double p : {0.0, 0.15, 0.35, 0.60}) {
    const EngagementStats s = run_with(p);
    out.add_row({core::fmt(p, 2), std::to_string(s.stalled_sessions),
                 core::fmt(s.watched_fraction_stalled, 3),
                 core::fmt(s.watched_fraction_clean, 3),
                 std::to_string(s.abandonments)});
  }
  out.print();
  core::print_paper_reference(
      "[25] (cited in §4): viewers who experience re-buffering watch less "
      "of the video; the gap widens with QoE sensitivity");
  return 0;
}
