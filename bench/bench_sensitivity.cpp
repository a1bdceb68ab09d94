// Sensitivity analysis: how robust are the headline findings to the
// workload parameters we had to assume?  The paper measured one service at
// one point in time; a reproduction should show which conclusions survive
// when the assumed knobs move.
#include "bench_common.h"

using namespace vstream;

namespace {

struct Headlines {
  double miss_pct = 0.0;
  double conditional_miss = 0.0;
  double hit_median_ms = 0.0;
  double no_loss_share = 0.0;
  double chunk0_retx_pct = 0.0;
  double first_chunk_dfb_gap_ms = 0.0;
};

Headlines measure(const workload::Scenario& scenario) {
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const telemetry::JoinedDataset& joined = run.joined;

  Headlines h;
  double chunks = 0.0, misses = 0.0;
  std::vector<double> conditional, hit_latency, dfb_first, dfb_other;
  std::size_t clean = 0;
  double c0_retx = 0.0;
  std::size_t c0_n = 0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    std::size_t session_misses = 0;
    if (!s.has_loss()) ++clean;
    for (const telemetry::JoinedChunk& c : s.chunks) {
      chunks += 1.0;
      if (!c.cdn->cache_hit()) {
        misses += 1.0;
        ++session_misses;
      } else {
        hit_latency.push_back(c.cdn->server_total_ms());
      }
      (c.player->chunk_id == 0 ? dfb_first : dfb_other)
          .push_back(c.player->dfb_ms);
      if (c.player->chunk_id == 0 && c.segments > 0) {
        c0_retx += 100.0 * c.retx_rate();
        ++c0_n;
      }
    }
    if (session_misses > 0) {
      conditional.push_back(static_cast<double>(session_misses) /
                            static_cast<double>(s.chunks.size()));
    }
  }
  h.miss_pct = 100.0 * misses / chunks;
  h.conditional_miss = analysis::mean_of(conditional);
  h.hit_median_ms = analysis::summarize(hit_latency).median;
  h.no_loss_share =
      static_cast<double>(clean) / static_cast<double>(joined.sessions().size());
  h.chunk0_retx_pct = c0_n == 0 ? 0.0 : c0_retx / static_cast<double>(c0_n);
  h.first_chunk_dfb_gap_ms = analysis::summarize(dfb_first).median -
                             analysis::summarize(dfb_other).median;
  return h;
}

void add_row(core::Table& out, const std::string& label, const Headlines& h) {
  out.add_row({label, core::fmt(h.miss_pct, 2),
               core::fmt(h.conditional_miss, 2),
               core::fmt(h.hit_median_ms, 2),
               core::fmt(100.0 * h.no_loss_share, 1) + "%",
               core::fmt(h.chunk0_retx_pct, 2),
               core::fmt(h.first_chunk_dfb_gap_ms, 0)});
}

}  // namespace

int main() {
  const std::size_t sessions = bench::bench_session_count(1'200);
  core::print_header("Sensitivity of the headline findings to workload knobs");
  core::Table out({"variant", "miss %", "cond. miss", "hit med ms",
                   "no-loss", "c0 retx %", "fig18 gap ms"});

  {
    workload::Scenario s = workload::paper_scenario();
    s.session_count = sessions;
    add_row(out, "baseline", measure(s));
  }
  for (const double alpha : {0.6, 1.0}) {
    workload::Scenario s = workload::paper_scenario();
    s.session_count = sessions;
    s.catalog.zipf_alpha = alpha;
    add_row(out, "zipf alpha " + core::fmt(alpha, 1), measure(s));
  }
  for (const double bw : {6'000.0, 25'000.0}) {
    workload::Scenario s = workload::paper_scenario();
    s.session_count = sessions;
    s.population.bandwidth_median_kbps = bw;
    add_row(out, "bw median " + core::fmt(bw / 1'000.0, 0) + " Mbps",
            measure(s));
  }
  {
    workload::Scenario s = workload::paper_scenario();
    s.session_count = sessions;
    s.catalog.video_count = 7'000;  // double the catalog, same disks
    add_row(out, "2x catalog", measure(s));
  }
  {
    workload::Scenario s = workload::paper_scenario();
    s.session_count = sessions;
    s.seed += 99;  // pure seed change
    add_row(out, "different seed", measure(s));
  }
  out.print();
  core::print_paper_reference(
      "robustness: the qualitative findings (conditional miss persistence, "
      "~2 ms hit latency, loss-free population, chunk-0 retx peak, the "
      "~300 ms first-chunk gap) should survive every variant; only the "
      "absolute miss rate tracks catalog-vs-disk sizing");
  return 0;
}
