// Session record groups: one session's slice of all five record streams.
//
// Telemetry moves around in per-session units — the natural grain,
// because sessions complete atomically on one shard and every analysis in
// §4 is a fold over per-session values.  A SessionRecordView is the
// non-owning form of that unit and the only input the join takes
// (StreamingJoiner::join, join.h): DatasetSessionRuns cuts views straight
// out of a canonical Dataset, and a SessionRecordGroup (the owning form,
// what spill files hold) converts to one.  A SessionGroupStream yields
// groups in ascending session-id order, which is exactly the canonical
// Dataset order, so anything computed by folding a stream (CSV export,
// joins, aggregates) matches the materialized path byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "telemetry/record_sink.h"

namespace vstream::telemetry {

/// Every record of one session, one span per stream, each in stream
/// order.  Does not own the records.
struct SessionRecordView {
  std::uint64_t session_id = 0;
  std::span<const PlayerSessionRecord> player_sessions;
  std::span<const CdnSessionRecord> cdn_sessions;
  std::span<const PlayerChunkRecord> player_chunks;
  std::span<const CdnChunkRecord> cdn_chunks;
  std::span<const TcpSnapshotRecord> tcp_snapshots;
};

/// Every record of one session, in emission order per stream (chunks in
/// chunk order, snapshots in time order) — the same order the canonical
/// Dataset holds them in.
struct SessionRecordGroup {
  std::uint64_t session_id = 0;
  std::vector<PlayerSessionRecord> player_sessions;
  std::vector<CdnSessionRecord> cdn_sessions;
  std::vector<PlayerChunkRecord> player_chunks;
  std::vector<CdnChunkRecord> cdn_chunks;
  std::vector<TcpSnapshotRecord> tcp_snapshots;

  bool empty() const {
    return player_sessions.empty() && cdn_sessions.empty() &&
           player_chunks.empty() && cdn_chunks.empty() &&
           tcp_snapshots.empty();
  }
  std::size_t record_count() const {
    return player_sessions.size() + cdn_sessions.size() +
           player_chunks.size() + cdn_chunks.size() + tcp_snapshots.size();
  }

  /// A view of this group's records; it aliases the group, which must
  /// outlive it.  Implicit, so a group can be joined directly.
  operator SessionRecordView() const {
    return {session_id, player_sessions, cdn_sessions, player_chunks,
            cdn_chunks, tcp_snapshots};
  }

  /// Concatenate another group for the same session onto this one (a
  /// session whose records were split across sinks — the caller appends in
  /// sink order, mirroring the canonical merge's stable sort).
  void append(SessionRecordGroup&& other);
};

/// Pull-based stream of session groups in strictly ascending session-id
/// order (one group per id).
class SessionGroupStream {
 public:
  virtual ~SessionGroupStream();
  /// The next session's records; nullopt at end of stream.
  virtual std::optional<SessionRecordGroup> next() = 0;
};

/// Walks a canonical Dataset (every stream in ascending session-id
/// order) one session run at a time: the next session is the smallest id
/// at any stream head, and its view spans that id's run in every stream.
/// Sessions present in only some streams (orphan records) get a view with
/// the other spans empty.  The Dataset must outlive the walk and its views.
class DatasetSessionRuns {
 public:
  explicit DatasetSessionRuns(const Dataset& data) : data_(&data) {}
  /// The next session's records; nullopt once every stream is consumed.
  std::optional<SessionRecordView> next();

 private:
  const Dataset* data_;
  std::size_t ps_ = 0, cs_ = 0, pc_ = 0, cc_ = 0, ts_ = 0;  // stream cursors
};

/// Streams a canonical Dataset as session groups: DatasetSessionRuns, with
/// each run copied into its group.  The Dataset must outlive the stream.
class DatasetGroupStream final : public SessionGroupStream {
 public:
  explicit DatasetGroupStream(const Dataset& data) : runs_(data) {}
  std::optional<SessionRecordGroup> next() override;

 private:
  DatasetSessionRuns runs_;
};

}  // namespace vstream::telemetry
