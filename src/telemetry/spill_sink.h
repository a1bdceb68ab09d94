// SpillSink: a RecordSink that bounds record memory by encoding each
// completed session's record group as a spill block.
//
// Records buffer as objects only while their session is live; the
// collector's session_complete() notification (driven by the engine as
// each session finishes) encodes the group as one block frame into the
// sink's byte buffer and frees it.  The sink writes no file: the engine
// runs one sink per batch, and its in-order handover appends the batch's
// blocks to the run's one spill file (SpillWriter::append).  Encoded
// blocks take a fraction of the records' memory, and a batch holds few
// sessions, so peak record memory is bounded by the batches in flight —
// independent of how many chunks the run produces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/record_sink.h"
#include "telemetry/spill_format.h"

namespace vstream::telemetry {

class SpillSink final : public RecordSink {
 public:
  /// One encoded block: its session and its frame's place in the buffer.
  struct Block {
    std::uint64_t session_id = 0;
    std::size_t begin = 0;
    std::size_t size = 0;
  };

  void record(PlayerSessionRecord r) override;
  void record(CdnSessionRecord r) override;
  void record(PlayerChunkRecord r) override;
  void record(CdnChunkRecord r) override;
  void record(TcpSnapshotRecord r) override;

  /// Encode the session's buffered group as one block and drop it.
  void session_complete(std::uint64_t session_id) override;

  /// Encode the sessions still live (abandoned sessions) in ascending
  /// session-id order — a deterministic epilogue — then stable-sort the
  /// blocks by session id, so blocks() is in canonical order.
  void finish() override;

  /// The encoded blocks: after finish(), in ascending session id, a
  /// session's blocks in emission order.
  const std::vector<Block>& blocks() const { return blocks_; }
  /// The frame of `block`, for SpillWriter::append.
  std::string_view frame(const Block& block) const {
    return std::string_view(bytes_).substr(block.begin, block.size);
  }
  std::size_t live_sessions() const { return live_.size(); }

 private:
  SessionRecordGroup& group_for(std::uint64_t session_id);
  void encode(const SessionRecordGroup& group);

  SpillBlockEncoder encoder_;
  std::string bytes_;
  std::vector<Block> blocks_;
  /// Ordered so finish() can encode leftovers in ascending-id order
  /// without a sort; the live set is small (concurrent sessions), so the
  /// log-n lookup is noise next to record construction.
  std::map<std::uint64_t, SessionRecordGroup> live_;
  /// The live group written last, or nullptr: one transfer's snapshots
  /// arrive in a row for one session, and map nodes do not move, so they
  /// skip the lookup.  Reset whenever a group leaves live_.
  SessionRecordGroup* last_ = nullptr;
};

}  // namespace vstream::telemetry
