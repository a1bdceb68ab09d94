#include "telemetry/join.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "telemetry/record_schema.h"

namespace vstream::telemetry {

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

namespace {

/// std::sort(items, less), skipped when `items` are already strictly
/// increasing — as engine output almost always is.  Equal neighbours still
/// take the sort: std::sort may reorder equal elements, and the result
/// must not depend on whether it ran.
template <typename T, typename Less>
void sort_unless_increasing(std::vector<T>& items, Less less) {
  if (std::adjacent_find(items.begin(), items.end(),
                         [&](const T& a, const T& b) { return !less(a, b); }) !=
      items.end()) {
    std::sort(items.begin(), items.end(), less);
  }
}

/// The last step of StreamingJoiner::join: sort chunks into chunk-id order
/// and snapshots into time order, attach each chunk's last tcp_info
/// snapshot, and derive the per-chunk retransmission/segment deltas from
/// the cumulative connection counters.  `session.chunks`/`session.snapshots`
/// must be populated (any order); pointers are left untouched.
void finalize_joined_session(JoinedSession& session) {
  sort_unless_increasing(session.chunks,
                         [](const JoinedChunk& a, const JoinedChunk& b) {
                           return a.player->chunk_id < b.player->chunk_id;
                         });
  sort_unless_increasing(
      session.snapshots,
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

template <typename Record>
void require_canonical(const std::vector<Record>& records) {
  if (!std::is_sorted(records.begin(), records.end(),
                      [](const Record& a, const Record& b) {
                        return a.session_id < b.session_id;
                      })) {
    throw std::invalid_argument(
        "JoinedDataset::build: " + std::string(RecordSchema<Record>::kStream) +
        " not in ascending session-id order (see telemetry::canonicalize)");
  }
}

}  // namespace

std::optional<JoinedSession> StreamingJoiner::join(
    const SessionRecordView& records) {
  JoinedSession session;
  session.session_id = records.session_id;
  if (!records.player_sessions.empty()) {
    session.player = &records.player_sessions.back();
  }
  if (!records.cdn_sessions.empty()) {
    session.cdn = &records.cdn_sessions.back();
  }

  if (session.player == nullptr && session.cdn == nullptr) return std::nullopt;
  if (session.player == nullptr || session.cdn == nullptr) {
    ++dropped_incomplete_;
    return std::nullopt;
  }
  if (proxies_ != nullptr && proxies_->is_proxy(records.session_id)) {
    ++dropped_as_proxy_;
    return std::nullopt;
  }

  // CDN chunks by (chunk id, stream position): the first record of each
  // id leads its equal range, so the lower bound of an id is the record
  // that wins.  Player chunks arrive in id order, so each search starts
  // where the previous one ended; an id that goes back searches from the
  // start.
  std::vector<const CdnChunkRecord*> cdn;
  cdn.reserve(records.cdn_chunks.size());
  for (const CdnChunkRecord& r : records.cdn_chunks) cdn.push_back(&r);
  sort_unless_increasing(
      cdn, [](const CdnChunkRecord* a, const CdnChunkRecord* b) {
        return a->chunk_id != b->chunk_id ? a->chunk_id < b->chunk_id
                                          : std::less<>{}(a, b);
      });
  const auto id_below = [](const CdnChunkRecord* c, std::uint32_t id) {
    return c->chunk_id < id;
  };
  session.chunks.reserve(records.player_chunks.size());
  auto from = cdn.begin();
  std::uint32_t previous = 0;
  for (const PlayerChunkRecord& r : records.player_chunks) {
    if (r.chunk_id < previous) from = cdn.begin();
    previous = r.chunk_id;
    from = std::lower_bound(from, cdn.end(), r.chunk_id, id_below);
    JoinedChunk chunk;
    chunk.player = &r;
    if (from != cdn.end() && (*from)->chunk_id == r.chunk_id) {
      chunk.cdn = *from;
    }
    session.chunks.push_back(chunk);
  }

  session.snapshots.reserve(records.tcp_snapshots.size());
  for (const TcpSnapshotRecord& r : records.tcp_snapshots) {
    session.snapshots.push_back(&r);
  }

  finalize_joined_session(session);
  ++sessions_joined_;
  return session;
}

JoinedDataset JoinedDataset::build(const Dataset& data,
                                   const ProxyFilterResult* proxies) {
  for_each_stream(
      [](std::size_t, const auto& records) { require_canonical(records); },
      data);

  JoinedDataset joined;
  joined.sessions_.reserve(data.player_sessions.size());
  StreamingJoiner joiner(proxies);
  DatasetSessionRuns runs(data);
  while (const std::optional<SessionRecordView> run = runs.next()) {
    if (std::optional<JoinedSession> session = joiner.join(*run)) {
      joined.sessions_.push_back(std::move(*session));
    }
  }
  joined.dropped_as_proxy_ = joiner.dropped_as_proxy();
  joined.dropped_incomplete_ = joiner.dropped_incomplete();
  return joined;
}

std::size_t JoinedDataset::chunk_count() const {
  std::size_t n = 0;
  for (const JoinedSession& s : sessions_) n += s.chunks.size();
  return n;
}

}  // namespace vstream::telemetry
