#include "analysis/qoe.h"

namespace vstream::analysis {

SessionQoe session_qoe(const telemetry::JoinedSession& session) {
  SessionQoe qoe;
  qoe.chunks = session.chunks.size();
  if (session.player != nullptr) qoe.startup_ms = session.player->startup_ms;
  qoe.rebuffer_rate_pct = session.rebuffer_rate_percent();
  qoe.avg_bitrate_kbps = session.avg_bitrate_kbps();

  double frames = 0.0, dropped = 0.0;
  std::uint32_t last_bitrate = 0;
  for (const telemetry::JoinedChunk& chunk : session.chunks) {
    if (chunk.player == nullptr) continue;
    qoe.rebuffer_events += chunk.player->rebuffer_count;
    if (chunk.player->visible) {
      frames += chunk.player->total_frames;
      dropped += chunk.player->dropped_frames;
    }
    if (last_bitrate != 0 && chunk.player->bitrate_kbps != last_bitrate) {
      ++qoe.bitrate_switches;
    }
    last_bitrate = chunk.player->bitrate_kbps;
  }
  qoe.dropped_frame_pct = frames == 0.0 ? 0.0 : 100.0 * dropped / frames;
  return qoe;
}

std::vector<SessionQoeRow> session_qoe_rows(
    const telemetry::JoinedDataset& data) {
  std::vector<SessionQoeRow> rows;
  rows.reserve(data.sessions().size());
  for (const telemetry::JoinedSession& session : data.sessions()) {
    rows.push_back({session.session_id, session_qoe(session)});
  }
  return rows;
}

}  // namespace vstream::analysis
