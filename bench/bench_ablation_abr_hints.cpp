// Ablation (§4.2-1 and §4.3-1 take-aways): feed the ABR the paper's two
// a-priori hints and measure the QoE change.
//
//   1. Bad-prefix hint: a first measurement round identifies persistently
//      slow /24 prefixes; a second round starts those sessions at the
//      lowest rung ("start the streaming with a more conservative initial
//      bitrate").
//   2. Throughput-outlier exclusion: stack-buffered chunks report an
//      impossibly high instantaneous throughput; filtering them out of the
//      ABR's EWMA avoids over-shooting.
#include "analysis/qoe.h"
#include "bench_common.h"
#include "engine/replay.h"

using namespace vstream;

namespace {

std::unordered_set<net::Prefix24> discover_bad_prefixes(std::size_t sessions) {
  // Measurement round: plain run, then the Fig. 9 methodology.
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = sessions;
  const engine::AnalyzedRun run = engine::run_and_analyze(scenario);
  const analysis::TailPrefixStudy study =
      analysis::persistent_tail_prefixes(run.joined, 100.0, 4, 0.10);
  std::unordered_set<net::Prefix24> bad;
  for (const analysis::PrefixRollup& p : study.persistent_tail) {
    bad.insert(p.prefix);
  }
  return bad;
}

struct HintResult {
  double rebuffer_pct_bad_prefix = 0.0;
  double startup_ms_bad_prefix = 0.0;
  std::size_t bad_prefix_sessions = 0;
};

HintResult run_serving_round(const std::unordered_set<net::Prefix24>& bad,
                             bool use_hint) {
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.seed += 1;  // serving round, different traffic
  scenario.abr = client::AbrKind::kRateBased;
  engine::RunOptions options;
  if (use_hint) options.bad_prefixes = bad;
  const engine::AnalyzedRun run =
      engine::run_and_analyze(scenario, std::move(options));
  const telemetry::JoinedDataset& joined = run.joined;

  HintResult result;
  double rebuf = 0.0, startup = 0.0;
  for (const telemetry::JoinedSession& s : joined.sessions()) {
    const net::Prefix24 prefix = net::prefix24_of(s.player->client_ip);
    if (!bad.contains(prefix)) continue;
    ++result.bad_prefix_sessions;
    rebuf += s.rebuffer_rate_percent();
    startup += s.player->startup_ms;
  }
  if (result.bad_prefix_sessions > 0) {
    result.rebuffer_pct_bad_prefix =
        rebuf / static_cast<double>(result.bad_prefix_sessions);
    result.startup_ms_bad_prefix =
        startup / static_cast<double>(result.bad_prefix_sessions);
  }
  return result;
}

struct OutlierFilterResult {
  double overshoot_chunk_share = 0.0;  ///< chunks picked above sustainable rate
  double mean_rebuffer_pct = 0.0;
};

OutlierFilterResult run_outlier_round(bool filter) {
  // A population whose download stacks buffer often, so the ABR's
  // throughput signal is frequently corrupted.
  workload::Scenario scenario = workload::paper_scenario();
  scenario.session_count = bench::bench_session_count(1'500);
  scenario.abr = client::AbrKind::kRateBased;
  scenario.abr_filters_throughput_outliers = filter;
  const engine::ReplayContext world(scenario);

  client::DownloadStackProfile noisy;
  noisy.anomaly_probability = 0.08;  // exaggerated for signal
  engine::SessionOverrides overrides;
  overrides.ds_profile = noisy;
  overrides.chunk_count = 20;
  overrides.bottleneck_kbps = 5'000.0;
  // 250 scripted sessions: the world's first admitted sessions, replayed.
  const std::size_t sessions =
      std::min<std::size_t>(250, world.admitted().size());
  std::size_t overshoot = 0, chunks = 0;
  double rebuf = 0.0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto replayed = world.replay_session(
        world.admitted()[i].spec.session_id, {}, &overrides);
    rebuf += replayed->qoe.rebuffer_rate_pct;
    for (const telemetry::PlayerChunkRecord& c :
         replayed->dataset.player_chunks) {
      ++chunks;
      // Over-shoot: the ABR picked a rung the 5 Mbps pipe cannot sustain.
      if (c.bitrate_kbps > 5'000) ++overshoot;
    }
  }
  OutlierFilterResult result;
  result.overshoot_chunk_share =
      static_cast<double>(overshoot) / static_cast<double>(chunks);
  result.mean_rebuffer_pct = rebuf / static_cast<double>(sessions);
  return result;
}

}  // namespace

int main() {
  core::print_header("Ablation 1: conservative start on known-bad prefixes");
  const auto bad = discover_bad_prefixes(bench::bench_session_count(1'500));
  core::print_metric("bad_prefixes_discovered", static_cast<double>(bad.size()));
  if (bad.empty()) {
    std::printf("no persistent-tail prefixes at this scale; rerun with "
                "VSTREAM_BENCH_SESSIONS=5000+\n");
  } else {
    core::Table out({"ABR start", "bad-prefix sessions", "startup ms",
                     "rebuffer %"});
    for (const bool hint : {false, true}) {
      const HintResult r = run_serving_round(bad, hint);
      out.add_row({hint ? "floor rung (hinted)" : "default",
                   std::to_string(r.bad_prefix_sessions),
                   core::fmt(r.startup_ms_bad_prefix, 0),
                   core::fmt(r.rebuffer_pct_bad_prefix, 3)});
    }
    out.print();
  }
  core::print_paper_reference(
      "§4.2-1 take-away: start known-problem prefixes at a conservative "
      "initial bitrate");

  core::print_header("Ablation 2: excluding stack-buffered throughput samples");
  core::Table out2({"EWMA policy", "overshoot chunk share", "mean rebuffer %"});
  for (const bool filter : {false, true}) {
    const OutlierFilterResult r = run_outlier_round(filter);
    out2.add_row({filter ? "outliers excluded" : "naive",
                  core::fmt(r.overshoot_chunk_share, 4),
                  core::fmt(r.mean_rebuffer_pct, 3)});
  }
  out2.print();
  core::print_paper_reference(
      "§4.3-1 take-away: rate-based ABRs should exclude DS-buffered "
      "outliers from their throughput estimates (over-shooting)");
  return 0;
}
