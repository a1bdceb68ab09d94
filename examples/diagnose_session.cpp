// Diagnosis walkthrough: localize a performance problem the way the paper
// does (§4.3) — with two-sided per-chunk instrumentation rather than
// client-side guessing.
//
// The script streams a session whose download stack buffers one chunk
// (the Fig. 17 case study), then runs:
//   * the Eq. 4 transient detector (D_FB and TP_inst spike while SRTT,
//     server latency and CWND stay normal), and
//   * the Eq. 5 RTO-based lower bound on persistent stack latency,
// and prints where the blame lands.

#include <cstdio>

#include "analysis/detectors.h"
#include "core/report.h"
#include "engine/replay.h"
#include "telemetry/join.h"

using namespace vstream;

int main() {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 1;
  const engine::ReplayContext world(scenario);

  // A download stack that reliably buffers chunks now and then — an
  // exaggerated version of the paper's 0.32%-of-chunks behaviour so the
  // walkthrough always has something to find.
  client::DownloadStackProfile stack;
  stack.anomaly_probability = 0.12;
  stack.anomaly_hold_median_ms = 1'800.0;

  engine::SessionOverrides overrides;
  overrides.chunk_count = 16;
  overrides.ds_profile = stack;
  overrides.abr = client::AbrKind::kFixed;
  overrides.fixed_bitrate_kbps = 2'500;
  const auto replayed = world.replay_session(
      world.admitted().front().spec.session_id, {}, &overrides);

  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  const telemetry::JoinedSession& session = joined.sessions().front();

  core::print_header("Per-chunk evidence (player + CDN + tcp_info)");
  core::Table table({"chunk", "D_FB ms", "D_LB ms", "TP_inst kbps",
                     "conn TP kbps", "SRTT ms", "server ms", "DS bound ms"});
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    const double tp_inst = analysis::instantaneous_throughput_kbps(
        chunk.cdn->chunk_bytes, chunk.player->dlb_ms);
    const double tp_conn =
        chunk.last_snapshot != nullptr
            ? chunk.last_snapshot->info.throughput_estimate_kbps()
            : 0.0;
    table.add_row({std::to_string(chunk.player->chunk_id),
                   core::fmt(chunk.player->dfb_ms, 0),
                   core::fmt(chunk.player->dlb_ms, 0),
                   core::fmt(tp_inst, 0), core::fmt(tp_conn, 0),
                   chunk.last_snapshot != nullptr
                       ? core::fmt(chunk.last_snapshot->info.srtt_ms, 1)
                       : "-",
                   core::fmt(chunk.cdn->server_total_ms(), 2),
                   core::fmt(analysis::dds_lower_bound_ms(chunk), 0)});
  }
  table.print();

  core::print_header("Eq. 4 transient download-stack screen");
  const analysis::DsOutlierResult verdict =
      analysis::detect_ds_outliers(session);
  if (verdict.flagged_count == 0) {
    std::printf("no stack-buffered chunks detected\n");
  }
  for (std::size_t i = 0; i < verdict.flagged.size(); ++i) {
    if (!verdict.flagged[i]) continue;
    std::printf(
        "chunk %zu: D_FB and instantaneous throughput are outliers while "
        "SRTT/server/CWND are normal -> the client download stack buffered "
        "this chunk (do NOT re-route this client, §4.3 take-away)\n",
        i);
  }

  // Cross-check against simulator ground truth — the validation the paper
  // could not run in production.
  const auto& truth = replayed->ground_truth.ds_anomalies;
  std::size_t injected = 0;
  for (const auto& [sid, chunks] : truth) injected += chunks.size();
  std::printf("\nground truth: %zu chunk(s) were really stack-buffered; "
              "detector flagged %zu\n",
              injected, verdict.flagged_count);
  return 0;
}
