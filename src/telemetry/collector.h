// Collector: the two independent log streams (player-side beacons and
// CDN-side logs) plus the periodic tcp_info sampler.
//
// Where the records land is pluggable (see record_sink.h): with no sink
// the collector materializes everything in its own Dataset — the classic
// in-RAM model, byte-for-byte what it always produced — and with a sink
// every record is forwarded as it is emitted, so a spilling sink can bound
// peak record memory by the live-session count instead of the chunk count.
#pragma once

#include <unordered_map>

#include "net/tcp_model.h"
#include "telemetry/record_sink.h"

namespace vstream::telemetry {

/// tcp_info snapshots expected from `chunks` chunks of `chunk_ms` each at
/// a `interval_ms` sampling cadence: one per interval of chunk time plus
/// the end-of-transfer sample.  A reserve size, not a bound — a transfer
/// that outlasts its chunk's duration samples more.
std::size_t expected_snapshots(std::size_t chunks, sim::Ms chunk_ms,
                               sim::Ms interval_ms);

class Collector {
 public:
  /// `sink` is optional and not owned; it must outlive the collector.
  /// Null sink: records accumulate in the internal Dataset (data()/take()).
  explicit Collector(sim::Ms tcp_sample_interval_ms = 500.0,
                     RecordSink* sink = nullptr)
      : tcp_sample_interval_ms_(tcp_sample_interval_ms), sink_(sink) {}

  void record(PlayerSessionRecord r) {
    if (sink_ != nullptr) sink_->record(std::move(r));
    else data_.player_sessions.push_back(std::move(r));
  }
  void record(CdnSessionRecord r) {
    if (sink_ != nullptr) sink_->record(std::move(r));
    else data_.cdn_sessions.push_back(std::move(r));
  }
  void record(PlayerChunkRecord r) {
    if (sink_ != nullptr) sink_->record(std::move(r));
    else data_.player_chunks.push_back(std::move(r));
  }
  void record(CdnChunkRecord r) {
    if (sink_ != nullptr) sink_->record(std::move(r));
    else data_.cdn_chunks.push_back(std::move(r));
  }
  void record(TcpSnapshotRecord r) {
    if (sink_ != nullptr) sink_->record(std::move(r));
    else data_.tcp_snapshots.push_back(std::move(r));
  }

  /// Downsample a transfer's per-round snapshot timeline to the production
  /// sampling cadence (every 500 ms of session time, §2.1), while always
  /// keeping at least one sample per chunk ("we snapshot TCP variables ...
  /// at least once per-chunk").  `transfer_start_ms` is session-relative.
  void sample_transfer(std::uint64_t session_id, std::uint32_t chunk_id,
                       sim::Ms transfer_start_ms,
                       const std::vector<net::RoundSample>& rounds);

  /// The session emitted its last record: retire its sampling clock and
  /// notify the sink (a spilling sink serializes the session here).
  void session_complete(std::uint64_t session_id);

  /// Pre-size every record stream for a run of `expected_sessions` sessions
  /// requesting `expected_chunks` chunks of `chunk_ms` each (the chunk
  /// counts are upper bounds: abandoned sessions request fewer; the
  /// snapshot count is expected_snapshots()).  Steady-state recording then
  /// appends into reserved capacity instead of growing through
  /// reallocation.  With a sink attached only the sampling clocks are
  /// pre-sized — the record vectors are unused.
  void reserve(std::size_t expected_sessions, std::size_t expected_chunks,
               sim::Ms chunk_ms);

  const Dataset& data() const { return data_; }

  /// Move the collected data out and reset the collector to its
  /// freshly-constructed state — including the per-session sampling
  /// clocks, so a reused collector restarts every session's tcp_info
  /// cadence instead of resuming stale timers.
  Dataset take();

 private:
  sim::Ms tcp_sample_interval_ms_;
  RecordSink* sink_ = nullptr;
  /// Per-session sampling clocks (each connection has its own timer), so
  /// the cadence is independent of how sessions interleave — a requirement
  /// for the sharded engine's shard-count-invariant output.  Entries are
  /// retired by session_complete(), bounding the map by live sessions.
  std::unordered_map<std::uint64_t, sim::Ms> next_sample_at_ms_;
  Dataset data_;
};

}  // namespace vstream::telemetry
