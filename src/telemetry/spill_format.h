// Binary on-disk spill format for session record groups (version 4:
// CRC32C-framed, columnar, crash- and corruption-tolerant).
//
// Layout (all fixed-width integers little-endian):
//
//   file   := magic:u32 ("VSPL", 0x4C505356) version:u32 (4) frame*
//   frame  := block | commit
//   block  := bmark:u32 ("VBLK") session_id:u64 payload_size:u64
//             header_crc:u32 payload payload_crc:u32
//   commit := cmark:u32 ("VCMT") blocks_committed:u64 commit_crc:u32
//
// header_crc is CRC32C over the 20 bytes bmark..payload_size, payload_crc
// over the payload, commit_crc over cmark+blocks_committed.  A commit
// frame is written only after its record group's block is fully written,
// so the last commit frame bounds the file's consistent prefix: anything
// after it is at best unflushed work from a crashed writer.
//
// Payload: count:varint x5 (player_sessions, cdn_sessions, player_chunks,
// cdn_chunks, tcp_snapshots), then the five groups *columnar* — for each
// stream, each column of record_schema.h in schema (CSV) order becomes one
// column encoded by spill_codec.h (const/zigzag-delta varints for integers
// and enums, const/xor-prev/exponent-split for doubles, const/bit-packed
// for bools, varint-length strings).  A decoded integer must fit its field
// and an enum must not pass its last enumerator, or the block counts as
// undecodable.  Doubles round-trip bit-exactly, which is what
// makes a spilled run's CSV export byte-identical to the in-memory one.
// Spill files live only as long as one run, so there is one version: a
// header with any other version is rejected as unsupported.
//
// The per-record session_id is NOT stored — it is block-level and
// re-applied on read.  `payload_size` makes blocks skippable without
// decoding, which is how SpillSet builds its block index: one header
// scan, then random-access reads in ascending session-id order regardless
// of write order (the engine writes one file per run, already in that
// order).
//
// Byte path (spill_io.h): writers stage frames in a buffer drained
// synchronously as one contiguous write per ~256 KiB; readers map the file
// read-only and decode straight from the page cache.
//
// Failure model: readers never throw on data damage.  A torn tail (the
// writer was killed mid-frame) is truncated; a block whose header or
// payload CRC fails is skipped, resynchronizing on the next frame marker;
// every salvage decision is accounted in SpillReadStats so callers can
// distinguish a clean read (stats.corrupted() == false) from a degraded
// one.  Only environmental errors still throw: unopenable or unmappable
// files, a short header, a wrong magic, or an unsupported version.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/record_group.h"
#include "telemetry/spill_io.h"

namespace vstream::telemetry {

inline constexpr std::uint32_t kSpillMagic = 0x4C505356;    // "VSPL"
/// The one spill format version written and read.
inline constexpr std::uint32_t kSpillVersionDefault = 4;
inline constexpr std::uint32_t kSpillBlockMarker = 0x4B4C4256;   // "VBLK"
inline constexpr std::uint32_t kSpillCommitMarker = 0x544D4356;  // "VCMT"

/// Salvage accounting for one reader (or an aggregate over a SpillSet).
/// All-zero except blocks_ok/bytes_salvaged/commit_frames on a clean file.
struct SpillReadStats {
  std::uint64_t blocks_ok = 0;       ///< blocks read and decoded intact
  std::uint64_t blocks_skipped = 0;  ///< CRC-failed or undecodable blocks
  std::uint64_t bytes_salvaged = 0;  ///< payload bytes of the intact blocks
  std::uint64_t bytes_skipped = 0;   ///< corrupt bytes scanned past (resync)
  std::uint64_t torn_tail_bytes = 0; ///< incomplete trailing frame dropped
  std::uint64_t commit_frames = 0;   ///< commit records seen

  /// True when any damage was encountered (skips, resyncs, torn tail).
  bool corrupted() const {
    return blocks_skipped != 0 || bytes_skipped != 0 || torn_tail_bytes != 0;
  }
  SpillReadStats& operator+=(const SpillReadStats& other) {
    blocks_ok += other.blocks_ok;
    blocks_skipped += other.blocks_skipped;
    bytes_salvaged += other.bytes_salvaged;
    bytes_skipped += other.bytes_skipped;
    torn_tail_bytes += other.torn_tail_bytes;
    commit_frames += other.commit_frames;
    return *this;
  }
  bool operator==(const SpillReadStats&) const = default;
};

/// Encodes session record groups as block frames (header, columnar
/// payload, payload CRC; no commit frame), reusing its scratch.  One
/// encoder per thread.
class SpillBlockEncoder {
 public:
  /// Append `group`'s block frame to `out`, its vectors in their current
  /// (emission) order.
  void encode(const SessionRecordGroup& group, std::string& out);

 private:
  std::string payload_;
  std::vector<std::uint64_t> col_;
  std::vector<std::uint8_t> bcol_;
};

/// Appends session blocks to one spill file.  Not thread-safe; the
/// sharded engine's in-order handover owns the run's one writer.  Frames
/// are staged and written through SpillFileBackend (buffered,
/// synchronous); write errors — real or failpoint-injected — surface as
/// sim::HostIoError from the write()/append()/flush_committed()/close()
/// call that observes them and poison the writer for good.
class SpillWriter {
 public:
  /// Creates/truncates `path` and writes the file header.  Throws
  /// sim::HostIoError when the file cannot be opened.
  explicit SpillWriter(const std::filesystem::path& path);

  /// Resume an existing spill file at a previously committed offset (see
  /// committed_bytes()): validates the header, truncates everything past
  /// `committed_bytes` (uncommitted work from a crashed run), and appends
  /// from there.  `blocks_already_written`
  /// restores the commit counter.  Throws std::runtime_error on a
  /// missing/short/incompatible file.
  SpillWriter(const std::filesystem::path& path,
              std::uint64_t committed_bytes,
              std::uint64_t blocks_already_written);

  ~SpillWriter();  // closes (without the error check close() performs)

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Serialize one session's records as a block and its commit frame.  The
  /// group's vectors are written in their current order (emission order,
  /// for byte-identical CSV re-export).
  void write(const SessionRecordGroup& group);

  /// Append one block frame made by SpillBlockEncoder, then its commit
  /// frame: write() for a block encoded elsewhere.
  void append(std::string_view block);

  /// Drain staged frames to the OS and return the committed byte offset —
  /// the value a checkpoint must record for a later resume.  Throws on
  /// write errors.
  std::uint64_t flush_committed();

  /// Flush and close, throwing on write errors.  Idempotent.
  void close();

  std::uint64_t blocks_written() const { return blocks_written_; }
  /// File offset after the last fully written frame.
  std::uint64_t committed_bytes() const { return offset_; }

 private:
  void write_file_header();

  std::filesystem::path path_;
  std::unique_ptr<SpillFileBackend> io_;
  SpillBlockEncoder encoder_;
  std::string block_;  ///< reused block frame of write()
  std::string frame_;  ///< reused file-header/commit buffer
  std::uint64_t blocks_written_ = 0;
  std::uint64_t offset_ = 0;  ///< bytes written so far (header + frames)
  bool poisoned_ = false;     ///< sticky failpoint-injected failure
  bool closed_ = false;
};

/// One block's location inside a spill file.
struct SpillBlockRef {
  std::uint64_t session_id = 0;
  std::uint64_t offset = 0;  ///< file offset of the block frame
};

/// One block's record count per stream, in payload order: player_sessions,
/// cdn_sessions, player_chunks, cdn_chunks, tcp_snapshots.
using SpillBlockCounts = std::array<std::uint64_t, kStreamCount>;

/// Reads one spill file: sequentially, or random-access via an index.
/// The constructor throws std::runtime_error on an unopenable file, a
/// short header, bad magic or an unsupported version (sim::HostIoError
/// when the file cannot be mapped); after that, damage never throws — torn
/// tails are truncated and corrupt blocks skipped, accounted in stats()
/// (and mirrored into the optional external `stats` accumulator, which
/// lets a SpillSet aggregate salvage over many readers).  Readers share
/// no state, so one reader per thread scales.
class SpillReader {
 public:
  explicit SpillReader(const std::filesystem::path& path,
                       SpillReadStats* stats = nullptr);

  /// Next intact block in file order; nullopt at end of file.
  std::optional<SessionRecordGroup> next();

  /// Scan every frame header (payloads skipped, not CRC-checked) and
  /// return the structurally valid block refs in file order, dropping
  /// the scanned pages as it goes (SpillMapping::release).  Leaves the
  /// sequential cursor at end of file.
  std::vector<SpillBlockRef> index();

  /// Read the block at `ref.offset` (moves the sequential cursor), first
  /// dropping the pages below it (SpillMapping::release), so a reader
  /// walking a file in order keeps only what is ahead of it.  nullopt
  /// when the block is corrupt (accounted in stats()).
  std::optional<SessionRecordGroup> read_at(const SpillBlockRef& ref);

  /// The record counts of the block at `ref.offset`, read from the payload
  /// head without decoding the columns, after checking the payload CRC.
  /// nullopt when the block fails the check, or its counts do not parse or
  /// exceed the decode-bomb bound.  Touches neither the cursor nor the
  /// stats, so a reader can size outputs before read_into.
  std::optional<SpillBlockCounts> block_counts(const SpillBlockRef& ref) const;

  /// Decode the block at `ref.offset`, whose block_counts() were `counts`,
  /// straight into `out`: stream s's records land at out.<s>[at[s]...],
  /// which must exist.  The payload CRC is not checked again.  Accounts
  /// the block in stats() as read_at does; false when its columns do not
  /// decode, leaving its slices partly written.  Throws std::runtime_error
  /// when the block's counts are no longer `counts` (the file changed).
  bool read_into(const SpillBlockRef& ref, const SpillBlockCounts& counts,
                 Dataset& out, const SpillBlockCounts& at);

  const SpillReadStats& stats() const { return stats_; }
  /// Total file size in bytes.
  std::uint64_t file_bytes() const { return map_.size(); }

 private:
  /// Parse one frame at the cursor; decode_payload controls whether block
  /// payloads are read+verified (next/read_at) or skipped (index).
  enum class FrameKind { kBlock, kCommit, kSkip, kEnd };
  FrameKind parse_frame(bool decode, std::optional<SessionRecordGroup>* out,
                        SpillBlockRef* ref);
  void bump(std::uint64_t SpillReadStats::* counter, std::uint64_t n);
  /// The payload of the block at `ref.offset` and its size, when its frame
  /// header checks out (marker, header CRC, size in bounds); else nullptr.
  const char* block_payload(const SpillBlockRef& ref,
                            std::uint64_t* payload_size) const;

  std::filesystem::path path_;
  SpillMapping map_;
  std::uint64_t pos_ = 0;
  SpillReadStats stats_;
  SpillReadStats* external_stats_ = nullptr;
};

/// Sessions per range of a spill file's parallel read (SpillSet::ranges).
inline constexpr std::size_t kSpillRangeSessions = 64;

/// One run's spill file.  Its blocks read in canonical order: the block
/// index stable-sorted by session id, so a session whose blocks are
/// spread over the file concatenates them in file order.
class SpillSet {
 public:
  /// Set the file.  Throws std::invalid_argument when the set already
  /// holds one: a run writes one file.
  void add_file(std::filesystem::path path);
  /// The file; empty when none was added.
  const std::filesystem::path& file() const { return file_; }
  bool empty() const { return file_.empty(); }

  /// The block index in canonical order, cut into consecutive ranges of
  /// kSpillRangeSessions whole sessions (the last may hold fewer): the
  /// tasks of a parallel read.  `stats` receives the header scan's
  /// accounting.  Throws what SpillReader's constructor throws.
  std::vector<std::vector<SpillBlockRef>> ranges(
      SpillReadStats* stats = nullptr) const;

  /// Stream `blocks` (one of ranges(), or all of them) through a reader
  /// of its own, a session's blocks concatenated, accumulating the reads'
  /// accounting in `stats`.  Corrupt blocks are skipped; a session whose
  /// every block is corrupt is absent from the stream.
  std::unique_ptr<SessionGroupStream> open(std::vector<SpillBlockRef> blocks,
                                           SpillReadStats* stats) const;

  /// The whole file in ascending session-id order (ranges() and open()),
  /// both in `stats`, final once the stream returns nullopt.
  std::unique_ptr<SessionGroupStream> open(
      SpillReadStats* stats = nullptr) const;

  /// Materialize every record back into one canonical Dataset (ascending
  /// session id, per-session emission order) — byte-equivalent to the
  /// in-memory run's dataset, and record for record what draining open()
  /// yields, with the same salvage accounting in `stats`.
  ///
  /// Two passes over ranges(), each one task per range on a
  /// runtime::Executor of `threads` workers (0 resolves through
  /// runtime::resolve_thread_count; capped at the range count; a single
  /// worker runs inline).  Each task maps the file through a reader of
  /// its own, so the pages it touched leave the RSS with it.  Pass 1
  /// reads every block's record counts
  /// (block_counts, which checks the payload CRC: once per block per
  /// load); a prefix sum in canonical order gives each block its output
  /// offsets, and the five outputs are sized once.  Pass 2 decodes each
  /// range's blocks straight into their slices (read_into).  A block that
  /// passes pass 1 but fails to decode leaves a gap, closed afterwards by
  /// one stable compaction of each affected stream.  Output and stats do
  /// not depend on `threads`.
  Dataset load(SpillReadStats* stats = nullptr, std::size_t threads = 0) const;

 private:
  std::filesystem::path file_;
};

}  // namespace vstream::telemetry
