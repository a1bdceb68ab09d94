#include "telemetry/join.h"

#include <algorithm>
#include <unordered_map>

namespace vstream::telemetry {

namespace {

/// (session, chunk) composite key for the chunk-level join.
struct JoinKey {
  std::uint64_t session;
  std::uint32_t chunk;
  friend bool operator==(const JoinKey&, const JoinKey&) = default;
};

struct JoinKeyHash {
  std::size_t operator()(const JoinKey& k) const {
    return std::hash<std::uint64_t>()(k.session * 1'000'003ull + k.chunk);
  }
};

}  // namespace

std::uint64_t JoinedSession::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const JoinedChunk& c : chunks) total += c.retransmissions;
  return total;
}

std::uint64_t JoinedSession::total_segments() const {
  std::uint64_t total = 0;
  for (const JoinedChunk& c : chunks) total += c.segments;
  return total;
}

double JoinedSession::retx_rate() const {
  const std::uint64_t segs = total_segments();
  return segs == 0 ? 0.0
                   : static_cast<double>(total_retransmissions()) /
                         static_cast<double>(segs);
}

sim::Ms JoinedSession::total_rebuffer_ms() const {
  sim::Ms total = 0.0;
  for (const JoinedChunk& c : chunks) {
    if (c.player != nullptr) total += c.player->rebuffer_ms;
  }
  return total;
}

double JoinedSession::rebuffer_rate_percent() const {
  const sim::Ms span = duration_ms();
  if (span <= 0.0) return 0.0;
  return 100.0 * total_rebuffer_ms() / span;
}

double JoinedSession::avg_bitrate_kbps() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const JoinedChunk& c : chunks) {
    if (c.player != nullptr) {
      sum += c.player->bitrate_kbps;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

sim::Ms JoinedSession::duration_ms() const {
  sim::Ms last = 0.0;
  for (const JoinedChunk& c : chunks) {
    if (c.player != nullptr) {
      last = std::max(last, c.player->request_sent_ms + c.player->dfb_ms +
                                c.player->dlb_ms);
    }
  }
  return last;
}

void finalize_joined_session(JoinedSession& session) {
  std::sort(session.chunks.begin(), session.chunks.end(),
            [](const JoinedChunk& a, const JoinedChunk& b) {
              return a.player->chunk_id < b.player->chunk_id;
            });
  std::sort(session.snapshots.begin(), session.snapshots.end(),
            [](const TcpSnapshotRecord* a, const TcpSnapshotRecord* b) {
              return a->at_ms < b->at_ms;
            });

  // "Last snapshot of chunk": the last snapshot in time order with the
  // chunk's id, found in one pass over the snapshots.  Each snapshot is
  // keyed to the first chunk carrying its id (chunks are sorted by id);
  // a connection's snapshots advance chunk by chunk, so the cursor is
  // nearly always already there and the binary search runs once per
  // chunk change.
  const std::vector<JoinedChunk>& chunks = session.chunks;
  std::vector<const TcpSnapshotRecord*> last_at(chunks.size(), nullptr);
  std::size_t at = 0;
  for (const TcpSnapshotRecord* snap : session.snapshots) {
    const std::uint32_t id = snap->chunk_id;
    if (at == chunks.size() || chunks[at].player->chunk_id != id) {
      at = static_cast<std::size_t>(
          std::lower_bound(chunks.begin(), chunks.end(), id,
                           [](const JoinedChunk& c, std::uint32_t key) {
                             return c.player->chunk_id < key;
                           }) -
          chunks.begin());
      if (at == chunks.size() || chunks[at].player->chunk_id != id) {
        continue;  // no chunk with this id
      }
    }
    last_at[at] = snap;
  }

  // Per-chunk counter deltas from the cumulative connection counters.
  std::uint64_t prev_retrans = 0;
  std::uint64_t prev_segments = 0;
  std::size_t first = 0;  // first chunk with the current chunk's id
  for (std::size_t i = 0; i < session.chunks.size(); ++i) {
    JoinedChunk& chunk = session.chunks[i];
    if (chunk.player->chunk_id != session.chunks[first].player->chunk_id) {
      first = i;
    }
    const TcpSnapshotRecord* last = last_at[first];
    chunk.last_snapshot = last;
    if (last != nullptr) {
      chunk.retransmissions = last->info.total_retrans - prev_retrans;
      chunk.segments = last->info.segments_out - prev_segments;
      prev_retrans = last->info.total_retrans;
      prev_segments = last->info.segments_out;
    }
  }
}

JoinedDataset JoinedDataset::build(const Dataset& data,
                                   const ProxyFilterResult* proxies) {
  JoinedDataset joined;

  std::unordered_map<std::uint64_t, JoinedSession> by_session;
  by_session.reserve(data.player_sessions.size());

  for (const PlayerSessionRecord& r : data.player_sessions) {
    by_session[r.session_id].session_id = r.session_id;
    by_session[r.session_id].player = &r;
  }
  for (const CdnSessionRecord& r : data.cdn_sessions) {
    by_session[r.session_id].session_id = r.session_id;
    by_session[r.session_id].cdn = &r;
  }

  // Chunk-level join: index CDN chunks by (session, chunk).
  std::unordered_map<JoinKey, const CdnChunkRecord*, JoinKeyHash> cdn_chunks;
  cdn_chunks.reserve(data.cdn_chunks.size());
  for (const CdnChunkRecord& r : data.cdn_chunks) {
    cdn_chunks.emplace(JoinKey{r.session_id, r.chunk_id}, &r);
  }

  for (const PlayerChunkRecord& r : data.player_chunks) {
    auto it = by_session.find(r.session_id);
    if (it == by_session.end()) continue;
    JoinedChunk chunk;
    chunk.player = &r;
    const auto cit = cdn_chunks.find(JoinKey{r.session_id, r.chunk_id});
    if (cit != cdn_chunks.end()) chunk.cdn = cit->second;
    it->second.chunks.push_back(chunk);
  }

  for (const TcpSnapshotRecord& r : data.tcp_snapshots) {
    auto it = by_session.find(r.session_id);
    if (it != by_session.end()) it->second.snapshots.push_back(&r);
  }

  for (auto& [id, session] : by_session) {
    if (session.player == nullptr || session.cdn == nullptr) {
      ++joined.dropped_incomplete_;
      continue;
    }
    if (proxies != nullptr && proxies->is_proxy(id)) {
      ++joined.dropped_as_proxy_;
      continue;
    }
    finalize_joined_session(session);
    joined.sessions_.push_back(std::move(session));
  }

  std::sort(joined.sessions_.begin(), joined.sessions_.end(),
            [](const JoinedSession& a, const JoinedSession& b) {
              return a.session_id < b.session_id;
            });
  return joined;
}

std::size_t JoinedDataset::chunk_count() const {
  std::size_t n = 0;
  for (const JoinedSession& s : sessions_) n += s.chunks.size();
  return n;
}

}  // namespace vstream::telemetry
