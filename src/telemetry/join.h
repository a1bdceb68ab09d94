// Joining the two measurement sides.
//
// "A key to end-to-end analysis is to trace session performance from the
// player through the CDN (at the granularity of chunks).  We implement
// tracing by using a globally unique session ID and per-session chunk IDs."
// (§2.2).  StreamingJoiner::join() performs that join for one session's
// records and optionally drops proxy sessions (§3 preprocessing); it is
// the only join.  JoinedDataset::build() walks a canonical Dataset one
// session run at a time (DatasetSessionRuns, record_group.h) and hands
// each run to a StreamingJoiner, copying no records; the spill path feeds
// the same joiner the groups it reads back from disk.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "telemetry/collector.h"
#include "telemetry/proxy_filter.h"
#include "telemetry/record_group.h"

namespace vstream::telemetry {

/// Both views of one chunk, plus TCP context.
struct JoinedChunk {
  const PlayerChunkRecord* player = nullptr;
  const CdnChunkRecord* cdn = nullptr;
  /// Last tcp_info snapshot taken while this chunk was being served (the
  /// per-chunk SRTT/CWND context of Table 2); null if none.
  const TcpSnapshotRecord* last_snapshot = nullptr;

  // Per-chunk deltas of the cumulative connection counters, derived from
  // consecutive snapshots at join time.
  std::uint64_t retransmissions = 0;
  std::uint64_t segments = 0;

  /// Per-chunk retransmission rate (Fig. 13/15).
  double retx_rate() const {
    return segments == 0 ? 0.0
                         : static_cast<double>(retransmissions) /
                               static_cast<double>(segments);
  }
};

/// One session after the join.
struct JoinedSession {
  std::uint64_t session_id = 0;
  const PlayerSessionRecord* player = nullptr;
  const CdnSessionRecord* cdn = nullptr;
  std::vector<JoinedChunk> chunks;                    // chunk-id order
  std::vector<const TcpSnapshotRecord*> snapshots;    // time order

  // -- convenience aggregates used all over §4 --

  std::uint64_t total_retransmissions() const;
  std::uint64_t total_segments() const;
  /// Session retransmission rate; >90% of sessions are below 10% (§4.2-3).
  double retx_rate() const;
  bool has_loss() const { return total_retransmissions() > 0; }

  sim::Ms total_rebuffer_ms() const;
  /// Re-buffering rate: stall time over session wall time (%).
  double rebuffer_rate_percent() const;

  double avg_bitrate_kbps() const;

  /// Wall-clock span of the session at the player (first request to end of
  /// last chunk's arrival).
  sim::Ms duration_ms() const;
};

/// Joins player and CDN views by (sessionID, chunkID), one session at a
/// time.
class StreamingJoiner {
 public:
  /// `proxies` may be null (no proxy filtering); if set it must outlive
  /// the joiner.
  explicit StreamingJoiner(const ProxyFilterResult* proxies = nullptr)
      : proxies_(proxies) {}

  /// Join one session's records.  The returned session's pointers alias
  /// the records behind `records`, which must stay alive and unmoved while
  /// the result is used.
  ///
  /// Duplicate session records: the last in stream order wins.  Duplicate
  /// (session, chunk) CDN records: the first wins.  nullopt when the
  /// session is dropped: records with no session-level record on either
  /// side are ignored silently (orphans), sessions missing one side count
  /// as dropped_incomplete, and proxy-flagged sessions count as
  /// dropped_as_proxy.
  std::optional<JoinedSession> join(const SessionRecordView& records);

  std::size_t sessions_joined() const { return sessions_joined_; }
  std::size_t dropped_as_proxy() const { return dropped_as_proxy_; }
  std::size_t dropped_incomplete() const { return dropped_incomplete_; }

 private:
  const ProxyFilterResult* proxies_;
  std::size_t sessions_joined_ = 0;
  std::size_t dropped_as_proxy_ = 0;
  std::size_t dropped_incomplete_ = 0;
};

class JoinedDataset {
 public:
  /// Join every session of a canonical Dataset — each stream in ascending
  /// session-id order (telemetry::canonicalize establishes it) — in
  /// ascending session-id order.  Throws std::invalid_argument naming the
  /// first stream that is out of order.  Sessions flagged by `proxies`
  /// (if provided) are dropped, as are sessions missing either side.  The
  /// Dataset must outlive the JoinedDataset.
  static JoinedDataset build(const Dataset& data,
                             const ProxyFilterResult* proxies = nullptr);

  const std::vector<JoinedSession>& sessions() const { return sessions_; }
  std::size_t dropped_as_proxy() const { return dropped_as_proxy_; }
  std::size_t dropped_incomplete() const { return dropped_incomplete_; }

  /// Total chunk count across sessions.
  std::size_t chunk_count() const;

 private:
  std::vector<JoinedSession> sessions_;
  std::size_t dropped_as_proxy_ = 0;
  std::size_t dropped_incomplete_ = 0;
};

}  // namespace vstream::telemetry
