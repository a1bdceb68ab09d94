#include "telemetry/collector.h"

namespace vstream::telemetry {

std::size_t expected_snapshots(std::size_t chunks, sim::Ms chunk_ms,
                               sim::Ms interval_ms) {
  if (chunk_ms <= 0.0 || interval_ms <= 0.0) return chunks;
  return chunks * (static_cast<std::size_t>(chunk_ms / interval_ms) + 1);
}

void Collector::reserve(std::size_t expected_sessions,
                        std::size_t expected_chunks, sim::Ms chunk_ms) {
  next_sample_at_ms_.reserve(expected_sessions);
  if (sink_ != nullptr) return;  // the Dataset is bypassed entirely
  data_.player_sessions.reserve(expected_sessions);
  data_.cdn_sessions.reserve(expected_sessions);
  data_.player_chunks.reserve(expected_chunks);
  data_.cdn_chunks.reserve(expected_chunks);
  data_.tcp_snapshots.reserve(expected_snapshots(
      expected_chunks, chunk_ms, tcp_sample_interval_ms_));
}

void Collector::sample_transfer(std::uint64_t session_id,
                                std::uint32_t chunk_id,
                                sim::Ms transfer_start_ms,
                                const std::vector<net::RoundSample>& rounds) {
  if (rounds.empty()) return;
  // The sampling clock is per-session (each connection has its own timer).
  sim::Ms& next_at =
      next_sample_at_ms_
          .try_emplace(session_id, transfer_start_ms + tcp_sample_interval_ms_)
          .first->second;

  sim::Ms last_sampled_at = -1.0;
  for (const net::RoundSample& round : rounds) {
    const sim::Ms at = transfer_start_ms + round.at_ms;
    if (at >= next_at) {
      record(TcpSnapshotRecord{session_id, chunk_id, at, round.info});
      last_sampled_at = at;
      while (next_at <= at) {
        next_at += tcp_sample_interval_ms_;
      }
    }
  }
  // The CDN service also samples when it finishes writing the chunk, so
  // every chunk carries at least one snapshot and the cumulative counters
  // (retransmissions, segments) can be attributed per chunk exactly.
  const net::RoundSample& last = rounds.back();
  const sim::Ms end_at = transfer_start_ms + last.at_ms;
  if (last_sampled_at < end_at) {
    record(TcpSnapshotRecord{session_id, chunk_id, end_at, last.info});
  }
}

void Collector::session_complete(std::uint64_t session_id) {
  next_sample_at_ms_.erase(session_id);
  if (sink_ != nullptr) sink_->session_complete(session_id);
}

Dataset Collector::take() {
  next_sample_at_ms_.clear();
  Dataset out = std::move(data_);
  data_ = Dataset{};
  return out;
}

}  // namespace vstream::telemetry
