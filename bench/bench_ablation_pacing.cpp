// Ablation (§4.2-3 take-away): server-side pacing [19] vs unpaced slow
// start — first-chunk retransmissions and re-buffering.
#include <map>

#include "bench_common.h"

using namespace vstream;

namespace {

struct PacingStats {
  double chunk0_retx_pct = 0.0;
  double later_retx_pct = 0.0;
  double no_loss_session_share = 0.0;
  double mean_rebuffer_pct = 0.0;
};

PacingStats run_with(bool pacing) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.tcp.pacing = pacing;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const telemetry::JoinedDataset& joined = run.joined;

  PacingStats stats;
  double c0_sum = 0.0, later_sum = 0.0, rebuf_sum = 0.0;
  std::size_t c0_n = 0, later_n = 0, clean = 0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    if (!s.has_loss()) ++clean;
    rebuf_sum += s.rebuffer_rate_percent();
    for (const telemetry::JoinedChunk& c : s.chunks) {
      if (c.segments == 0) continue;
      if (c.player->chunk_id == 0) {
        c0_sum += 100.0 * c.retx_rate();
        ++c0_n;
      } else if (c.player->chunk_id <= 10) {
        later_sum += 100.0 * c.retx_rate();
        ++later_n;
      }
    }
  }
  const double sessions = static_cast<double>(joined.sessions().size());
  stats.chunk0_retx_pct = c0_sum / static_cast<double>(c0_n);
  stats.later_retx_pct = later_sum / static_cast<double>(later_n);
  stats.no_loss_session_share = static_cast<double>(clean) / sessions;
  stats.mean_rebuffer_pct = rebuf_sum / sessions;
  return stats;
}

}  // namespace

int main() {
  core::print_header("Ablation: server-side pacing (Trickle-style)");
  core::Table out({"sender", "chunk-0 retx %", "chunks 1-10 retx %",
                   "no-loss sessions", "mean rebuffer %"});
  for (const bool pacing : {false, true}) {
    const PacingStats s = run_with(pacing);
    out.add_row({pacing ? "paced" : "unpaced",
                 core::fmt(s.chunk0_retx_pct, 3),
                 core::fmt(s.later_retx_pct, 3),
                 core::fmt(100.0 * s.no_loss_session_share, 1) + "%",
                 core::fmt(s.mean_rebuffer_pct, 3)});
  }
  out.print();
  core::print_paper_reference(
      "§4.2-3 take-away: pacing removes the slow-start burst, collapsing "
      "first-chunk retransmissions and improving early-session QoE");
  return 0;
}
