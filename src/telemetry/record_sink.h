// Record sinks: where the collector's five record streams land.
//
// The collector historically appended every record into in-RAM vectors
// (the Dataset below) and handed the whole thing over at the end of a run.
// That materialize-everything model is still the default — and still
// byte-identical to the old behaviour — but the RecordSink interface lets
// a run route records elsewhere instead: SpillSink (spill_sink.h) streams
// each completed session's record group to a compact binary file so peak
// record memory is bounded by the number of *concurrently live* sessions,
// not by the total chunk count.
//
// Contract: record() calls for one session arrive in emission order
// (chunk order for chunk records, time order for snapshots — the same
// order the Dataset vectors would hold them in), and session_complete(id)
// is called exactly once per session after its last record.  finish()
// ends the stream; no calls may follow it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/records.h"

namespace vstream::telemetry {

/// Raw (un-joined) measurement data, as it would land in the two logging
/// systems.
struct Dataset {
  std::vector<PlayerSessionRecord> player_sessions;
  std::vector<CdnSessionRecord> cdn_sessions;
  std::vector<PlayerChunkRecord> player_chunks;
  std::vector<CdnChunkRecord> cdn_chunks;
  std::vector<TcpSnapshotRecord> tcp_snapshots;
};

inline constexpr std::size_t kStreamCount = 5;

/// Call `f(s, stream...)` for each of the five record streams of `sets`
/// (Datasets or SessionRecordGroups), s = 0..4 in Dataset order.
template <typename F, typename... Sets>
void for_each_stream(F&& f, Sets&... sets) {
  f(0, sets.player_sessions...);
  f(1, sets.cdn_sessions...);
  f(2, sets.player_chunks...);
  f(3, sets.cdn_chunks...);
  f(4, sets.tcp_snapshots...);
}

/// Put `data` into canonical order — every stream in ascending session-id
/// order — by stable-sorting each stream that is not already sorted.  The
/// sort is stable, so each session keeps its records in their original
/// relative order (and the join its last-wins/first-wins choices).
/// Engine runs and spill loads are canonical already; CSVs from
/// elsewhere may not be.
void canonicalize(Dataset& data);

class RecordSink {
 public:
  virtual ~RecordSink();

  virtual void record(PlayerSessionRecord r) = 0;
  virtual void record(CdnSessionRecord r) = 0;
  virtual void record(PlayerChunkRecord r) = 0;
  virtual void record(CdnChunkRecord r) = 0;
  virtual void record(TcpSnapshotRecord r) = 0;

  /// All records for `session_id` have been emitted.
  virtual void session_complete(std::uint64_t session_id) = 0;

  /// End of stream: flush buffered state.  Called once, after the last
  /// record; implementations must tolerate sessions that never saw a
  /// session_complete (a run can abandon sessions).
  virtual void finish() = 0;
};

/// The materialize-in-RAM sink: appends into a Dataset, exactly like the
/// sink-less collector.  Useful for composing the streaming machinery in
/// tests and tools against the classic storage model.
class MemorySink final : public RecordSink {
 public:
  void record(PlayerSessionRecord r) override {
    data_.player_sessions.push_back(std::move(r));
  }
  void record(CdnSessionRecord r) override {
    data_.cdn_sessions.push_back(std::move(r));
  }
  void record(PlayerChunkRecord r) override {
    data_.player_chunks.push_back(std::move(r));
  }
  void record(CdnChunkRecord r) override {
    data_.cdn_chunks.push_back(std::move(r));
  }
  void record(TcpSnapshotRecord r) override {
    data_.tcp_snapshots.push_back(std::move(r));
  }
  void session_complete(std::uint64_t /*session_id*/) override {}
  void finish() override {}

  const Dataset& data() const { return data_; }
  /// Move the collected data out, leaving the sink empty and reusable.
  Dataset take();

 private:
  Dataset data_;
};

}  // namespace vstream::telemetry
