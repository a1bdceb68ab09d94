// SpillSink: a RecordSink that bounds record memory by spilling each
// completed session's record group to disk.
//
// Records buffer in RAM only while their session is live; the collector's
// session_complete() notification (driven by the engine as each session
// finishes) serializes the group as one spill block and frees it.  Peak
// record memory is therefore proportional to the number of concurrently
// *live* sessions — independent of how many chunks the run produces —
// which is the whole point of the streaming telemetry pipeline.
#pragma once

#include <map>

#include "telemetry/record_sink.h"
#include "telemetry/spill_format.h"

namespace vstream::telemetry {

class SpillSink final : public RecordSink {
 public:
  /// Creates/truncates the spill file.  Throws when the file cannot be
  /// opened.
  explicit SpillSink(const std::filesystem::path& path);

  /// Resume an existing spill file at a checkpointed committed offset:
  /// uncommitted tail frames are truncated and appending continues.
  /// Throws on a missing/short/incompatible file.
  SpillSink(const std::filesystem::path& path, std::uint64_t committed_bytes,
            std::uint64_t blocks_already_written);

  void record(PlayerSessionRecord r) override;
  void record(CdnSessionRecord r) override;
  void record(PlayerChunkRecord r) override;
  void record(CdnChunkRecord r) override;
  void record(TcpSnapshotRecord r) override;

  /// Serialize the session's buffered group as one block and drop it.
  void session_complete(std::uint64_t session_id) override;

  /// Spill any sessions still live (abandoned sessions) in ascending
  /// session-id order — a deterministic epilogue — then flush and close
  /// the file, throwing on write errors.
  void finish() override;

  /// The finish() epilogue without the close: spill still-live sessions in
  /// ascending-id order and keep appending.  A checkpointed run calls this
  /// at every batch boundary so no session's records are hostage to the
  /// in-memory buffer when the batch is declared committed.
  void flush_live();

  /// Flush written frames and return the committed byte offset for a
  /// checkpoint (see SpillWriter::flush_committed).  Throws on I/O errors.
  std::uint64_t flush_committed() { return writer_.flush_committed(); }

  const std::filesystem::path& path() const { return path_; }
  std::size_t live_sessions() const { return live_.size(); }
  std::size_t peak_live_sessions() const { return peak_live_; }
  std::uint64_t blocks_written() const { return writer_.blocks_written(); }
  std::uint64_t committed_bytes() const { return writer_.committed_bytes(); }

 private:
  SessionRecordGroup& group_for(std::uint64_t session_id);

  std::filesystem::path path_;
  SpillWriter writer_;
  /// Ordered so finish() can flush leftovers in ascending-id order without
  /// a sort; the live set is small (concurrent sessions), so the log-n
  /// lookup is noise next to record construction.
  std::map<std::uint64_t, SessionRecordGroup> live_;
  /// The live group written last, or nullptr: one transfer's snapshots
  /// arrive in a row for one session, and map nodes do not move, so they
  /// skip the lookup.  Reset whenever a group leaves live_.
  SessionRecordGroup* last_ = nullptr;
  std::size_t peak_live_ = 0;
};

}  // namespace vstream::telemetry
