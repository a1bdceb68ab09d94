// Quickstart: stream one video session through the full end-to-end path
// and print the two-sided, per-chunk instrumentation the library collects
// (the paper's Table 2), followed by the session QoE summary.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/report.h"
#include "engine/replay.h"
#include "telemetry/join.h"

using namespace vstream;

int main() {
  // A scenario is the complete configuration of a simulated deployment:
  // video catalog, client population, CDN fleet, transport and player.
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 1;  // one viewer, streamed as a scripted session

  // Build the world: catalog, population, a CDN fleet whose caches are
  // warmed to the steady state of servers that have been running a while.
  const engine::ReplayContext world(scenario);

  // Stream the viewer's session as 12 chunks with the hybrid ABR.
  engine::SessionOverrides overrides;
  overrides.chunk_count = 12;
  overrides.abr = client::AbrKind::kHybrid;
  const std::uint64_t session_id = world.admitted().front().spec.session_id;
  const auto replayed = world.replay_session(session_id, {}, &overrides);

  // Join the player-side and CDN-side logs by (sessionID, chunkID) —
  // the paper's §2.2 tracing methodology.
  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  const telemetry::JoinedSession& session = joined.sessions().front();

  std::printf("session %llu: video length %.0f s, startup %.0f ms\n\n",
              static_cast<unsigned long long>(session_id),
              session.player->video_duration_s, session.player->startup_ms);

  core::Table table({"chunk", "bitrate", "D_FB ms", "D_LB ms", "server ms",
                     "cache", "SRTT ms", "retx", "rebuf ms", "drop%"});
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    const double drop_pct =
        chunk.player->total_frames == 0
            ? 0.0
            : 100.0 * chunk.player->dropped_frames / chunk.player->total_frames;
    table.add_row({
        std::to_string(chunk.player->chunk_id),
        std::to_string(chunk.player->bitrate_kbps),
        core::fmt(chunk.player->dfb_ms, 1),
        core::fmt(chunk.player->dlb_ms, 1),
        core::fmt(chunk.cdn->server_total_ms(), 2),
        cdn::to_string(chunk.cdn->cache_level),
        chunk.last_snapshot != nullptr
            ? core::fmt(chunk.last_snapshot->info.srtt_ms, 1)
            : "-",
        std::to_string(chunk.retransmissions),
        core::fmt(chunk.player->rebuffer_ms, 0),
        core::fmt(drop_pct, 1),
    });
  }
  table.print();

  std::printf(
      "\nQoE: avg bitrate %.0f kbps, rebuffer rate %.2f%%, "
      "session retx rate %.3f%%\n",
      session.avg_bitrate_kbps(), session.rebuffer_rate_percent(),
      100.0 * session.retx_rate());
  return 0;
}
