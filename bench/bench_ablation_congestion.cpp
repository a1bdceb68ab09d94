// Ablation: congestion-control flavour on the CDN servers.  The paper's
// fleet ran Linux CUBIC; Reno is the classical baseline.  CUBIC's gentler
// backoff (beta 0.7) and curve-shaped recovery keep the window near the
// path's capacity between losses, which shows up in session QoE.
#include "analysis/qoe.h"
#include "bench_common.h"

using namespace vstream;

namespace {

struct CcStats {
  double no_loss_share = 0.0;
  double session_retx_pct_mean = 0.0;
  double rebuffer_pct_mean = 0.0;
  double avg_bitrate_kbps = 0.0;
};

CcStats run_with(net::CongestionControl cc) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.tcp.congestion_control = cc;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const telemetry::JoinedDataset& joined = run.joined;

  CcStats stats;
  std::size_t clean = 0;
  double retx = 0.0, rebuf = 0.0, bitrate = 0.0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    if (!s.has_loss()) ++clean;
    retx += 100.0 * s.retx_rate();
    rebuf += s.rebuffer_rate_percent();
    bitrate += s.avg_bitrate_kbps();
  }
  const double n = static_cast<double>(joined.sessions().size());
  stats.no_loss_share = static_cast<double>(clean) / n;
  stats.session_retx_pct_mean = retx / n;
  stats.rebuffer_pct_mean = rebuf / n;
  stats.avg_bitrate_kbps = bitrate / n;
  return stats;
}

}  // namespace

int main() {
  core::print_header("Ablation: congestion control (server side)");
  core::Table out({"cc", "no-loss sessions", "mean retx %", "mean rebuffer %",
                   "mean bitrate kbps"});
  for (const net::CongestionControl cc :
       {net::CongestionControl::kReno, net::CongestionControl::kCubic}) {
    const CcStats s = run_with(cc);
    out.add_row({net::to_string(cc),
                 core::fmt(100.0 * s.no_loss_share, 1) + "%",
                 core::fmt(s.session_retx_pct_mean, 3),
                 core::fmt(s.rebuffer_pct_mean, 3),
                 core::fmt(s.avg_bitrate_kbps, 0)});
  }
  out.print();
  core::print_paper_reference(
      "context: the paper's CDN ran Linux (CUBIC default since 2.6.19); "
      "its slow-start and loss behaviours underlie §4.2-3");
  return 0;
}
