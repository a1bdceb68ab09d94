#include "telemetry/spill_format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "failpoints/failpoint.h"
#include "runtime/executor.h"
#include "runtime/huge_pages.h"
#include "sim/host_error.h"
#include "telemetry/crc32c.h"
#include "telemetry/le_bytes.h"
#include "telemetry/record_schema.h"
#include "telemetry/spill_codec.h"

namespace vstream::telemetry {

namespace {

// ------------------------------------------------------ columnar payloads
// Each stream's columns are its record_schema.h columns after session_id
// (block-level), in schema order; spill_codec.h encodes each column.

/// Decode-bomb guard: a block holds one session's records, so any count
/// beyond this is a writer bug or adversarial input, rejected before any
/// allocation is sized from it.
constexpr std::uint64_t kMaxBlockRecords = std::uint64_t{1} << 24;

template <typename Rec>
void encode_stream(std::string& out, const std::vector<Rec>& recs,
                   std::vector<std::uint64_t>& tmp,
                   std::vector<std::uint8_t>& btmp) {
  const std::size_t n = recs.size();
  for_each_payload_column<Rec>([&](const auto& col) {
    using T = field_t<Rec, decltype(col)>;
    if constexpr (std::is_same_v<T, std::string>) {
      for (const Rec& r : recs) codec::put_string(out, col.get(r));
    } else if constexpr (std::is_same_v<T, bool>) {
      btmp.resize(n);
      for (std::size_t i = 0; i < n; ++i) btmp[i] = col.get(recs[i]) ? 1 : 0;
      codec::encode_bool_column(out, btmp);
    } else if constexpr (std::is_same_v<T, double>) {
      tmp.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        tmp[i] = std::bit_cast<std::uint64_t>(col.get(recs[i]));
      }
      codec::encode_f64_column(out, tmp);
    } else {
      tmp.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        tmp[i] = static_cast<std::uint64_t>(col.get(recs[i]));
      }
      codec::encode_int_column(out, tmp);
    }
  });
}

/// Decode one stream's columns straight into `recs`, range-checking every
/// integer against its field type and every enum against its last
/// enumerator.
template <typename Rec>
void decode_stream(codec::Reader& r, std::span<Rec> recs,
                   std::uint64_t session_id) {
  for (Rec& rec : recs) rec.session_id = session_id;
  const std::size_t n = recs.size();
  for_each_payload_column<Rec>([&](const auto& col) {
    using T = field_t<Rec, decltype(col)>;
    if constexpr (std::is_same_v<T, std::string>) {
      for (Rec& rec : recs) col.get(rec) = codec::get_string(r);
    } else if constexpr (std::is_same_v<T, bool>) {
      codec::decode_bool_column(
          r, n, [&](std::size_t i, bool v) { col.get(recs[i]) = v; });
    } else if constexpr (std::is_same_v<T, double>) {
      codec::decode_f64_column(r, n, [&](std::size_t i, std::uint64_t v) {
        col.get(recs[i]) = std::bit_cast<double>(v);
      });
    } else {
      std::uint64_t max = 0;
      if constexpr (std::is_enum_v<T>) {
        max = static_cast<std::uint64_t>(last_enumerator(T{}));
      } else {
        max = std::numeric_limits<T>::max();
      }
      codec::decode_int_column(r, n, [&](std::size_t i, std::uint64_t v) {
        if (v > max) codec::fail("integer column value out of range");
        col.get(recs[i]) = static_cast<T>(v);
      });
    }
  });
}

void encode_payload(std::string& out, const SessionRecordGroup& g,
                    std::vector<std::uint64_t>& tmp,
                    std::vector<std::uint8_t>& btmp) {
  for_each_stream([&](std::size_t, const auto& recs) {
    codec::put_varint(out, recs.size());
  }, g);
  for_each_stream([&](std::size_t, const auto& recs) {
    encode_stream(out, recs, tmp, btmp);
  }, g);
}

/// The payload head: five record counts, each checked against
/// kMaxBlockRecords before anything is sized from it.
SpillBlockCounts get_counts(codec::Reader& r) {
  SpillBlockCounts counts;
  for (std::uint64_t& n : counts) n = codec::get_varint(r);
  for (const std::uint64_t n : counts) {
    if (n > kMaxBlockRecords) {
      codec::fail("implausible record count in block");
    }
  }
  return counts;
}

/// Decode the five streams of a payload whose `counts` `r` has read,
/// stream s into out.<s>[at[s], at[s] + counts[s]), which must exist.
/// `out` is a SessionRecordGroup or a Dataset.
template <typename Streams>
void decode_streams(codec::Reader& r, std::uint64_t session_id,
                    const SpillBlockCounts& counts, const SpillBlockCounts& at,
                    Streams& out) {
  for_each_stream([&](std::size_t s, auto& recs) {
    decode_stream(r, std::span(recs).subspan(at[s], counts[s]), session_id);
  }, out);
  if (r.p != r.end) codec::fail("trailing bytes in block payload");
}

SessionRecordGroup decode_payload(const char* data, std::size_t size,
                                  std::uint64_t session_id) {
  codec::Reader r{data, data + size};
  SessionRecordGroup g;
  g.session_id = session_id;
  const SpillBlockCounts counts = get_counts(r);
  for_each_stream([&](std::size_t s, auto& recs) { recs.resize(counts[s]); },
                  g);
  decode_streams(r, session_id, counts, SpillBlockCounts{}, g);
  return g;
}

constexpr std::uint64_t kFileHeaderBytes = 8;    // magic + version
constexpr std::uint64_t kBlockHeaderBytes = 24;  // marker+id+size+crc
constexpr std::uint64_t kBlockTrailerBytes = 4;  // payload crc
constexpr std::uint64_t kCommitFrameBytes = 16;  // marker+count+crc

/// Validate a spill file header read into `raw` (8 bytes); throws on a
/// foreign file or any version other than kSpillVersionDefault.
void check_file_header(const char* raw, const std::filesystem::path& path) {
  if (load_u32(raw) != kSpillMagic) {
    throw std::runtime_error("spill: bad magic in " + path.string());
  }
  const std::uint32_t version = load_u32(raw + 4);
  if (version != kSpillVersionDefault) {
    throw std::runtime_error("spill: unsupported version " +
                             std::to_string(version) + " in " + path.string());
  }
}

}  // namespace

// -------------------------------------------------------------- SpillWriter

void SpillWriter::write_file_header() {
  frame_.clear();
  put_u32(frame_, kSpillMagic);
  put_u32(frame_, kSpillVersionDefault);
  io_->append(frame_.data(), frame_.size());
  offset_ = kFileHeaderBytes;
}

SpillWriter::SpillWriter(const std::filesystem::path& path) : path_(path) {
  io_ = std::make_unique<SpillFileBackend>(path, /*truncate=*/true);
  write_file_header();
}

SpillWriter::SpillWriter(const std::filesystem::path& path,
                         std::uint64_t committed_bytes,
                         std::uint64_t blocks_already_written)
    : path_(path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw sim::HostIoError("spill: cannot resume missing file " +
                           path.string());
  }
  if (committed_bytes < kFileHeaderBytes || size < committed_bytes) {
    throw std::runtime_error(
        "spill: committed offset " + std::to_string(committed_bytes) +
        " is not inside " + path.string() + " (size " + std::to_string(size) +
        ") — checkpoint and spill file disagree");
  }
  {
    std::ifstream in(path, std::ios::binary);
    char raw[kFileHeaderBytes];
    if (!in.read(raw, kFileHeaderBytes)) {
      throw std::runtime_error("spill: truncated header in " + path.string());
    }
    check_file_header(raw, path);
  }
  // Everything past the committed offset is uncommitted work from a
  // crashed writer; drop it so the resumed run re-emits those sessions.
  std::filesystem::resize_file(path, committed_bytes);
  io_ = std::make_unique<SpillFileBackend>(path, /*truncate=*/false);
  offset_ = committed_bytes;
  blocks_written_ = blocks_already_written;
}

SpillWriter::~SpillWriter() = default;  // backend drains + closes best-effort

void SpillWriter::write(const SessionRecordGroup& group) {
  // Failpoint spill.write: an injected host failure takes the same road
  // as a real one — poison the writer, throw from this very call.  Frames
  // staged before the failure still drain (they are complete and
  // committed), matching the pre-async behavior where earlier blocks
  // survived in the stream buffer.
  if (failpoints::should_fail(failpoints::Site::kSpillWrite)) {
    poisoned_ = true;
  }
  if (poisoned_ || io_->failed()) {
    throw sim::HostIoError("spill: error writing " + path_.string());
  }
  scratch_.clear();
  encode_payload(scratch_, group, col_, bcol_);

  // One contiguous frame image: block header (incl. both CRCs staged
  // back to back), payload, payload CRC, then the commit frame.  The
  // backend staged-buffer drain turns many frames into one write(2).
  frame_.clear();
  put_u32(frame_, kSpillBlockMarker);
  put_u64(frame_, group.session_id);
  put_u64(frame_, scratch_.size());
  put_u32(frame_, crc32c(frame_.data(), frame_.size()));  // header CRC
  put_u32(frame_, crc32c(scratch_.data(), scratch_.size()));
  io_->append(frame_.data(), kBlockHeaderBytes);
  io_->append(scratch_.data(), scratch_.size());
  io_->append(frame_.data() + kBlockHeaderBytes, kBlockTrailerBytes);
  ++blocks_written_;

  // Commit record: the group above is fully written; a recovery scan that
  // sees this frame knows every prior byte belongs to complete blocks.
  frame_.clear();
  put_u32(frame_, kSpillCommitMarker);
  put_u64(frame_, blocks_written_);
  put_u32(frame_, crc32c(frame_.data(), frame_.size()));
  io_->append(frame_.data(), frame_.size());

  // Fail fast on a write error: nothing after a failed block can commit,
  // and the committed prefix stays salvageable for --resume / analyze.
  if (io_->failed()) {
    throw sim::HostIoError("spill: error writing " + path_.string());
  }

  offset_ += kBlockHeaderBytes + scratch_.size() + kBlockTrailerBytes +
             kCommitFrameBytes;
}

std::uint64_t SpillWriter::flush_committed() {
  if (failpoints::should_fail(failpoints::Site::kSpillFlush)) {
    poisoned_ = true;
  }
  if (poisoned_) {
    throw sim::HostIoError("spill: error writing " + path_.string());
  }
  io_->flush();
  if (io_->failed()) {
    throw sim::HostIoError("spill: error writing " + path_.string());
  }
  return offset_;
}

void SpillWriter::close() {
  if (closed_) return;
  closed_ = true;
  io_->close();
  if (poisoned_ || io_->failed()) {
    throw sim::HostIoError("spill: error writing " + path_.string());
  }
}

// -------------------------------------------------------------- SpillReader

SpillReader::SpillReader(const std::filesystem::path& path,
                         SpillReadStats* stats)
    : path_(path), map_(path), external_stats_(stats) {
  if (map_.size() < kFileHeaderBytes) {
    throw std::runtime_error("spill: truncated header in " + path.string());
  }
  check_file_header(map_.data(), path);
  pos_ = kFileHeaderBytes;
}

void SpillReader::bump(std::uint64_t SpillReadStats::* counter,
                       std::uint64_t n) {
  stats_.*counter += n;
  if (external_stats_ != nullptr) external_stats_->*counter += n;
}

SpillReader::FrameKind SpillReader::parse_frame(
    bool decode, std::optional<SessionRecordGroup>* out, SpillBlockRef* ref) {
  const std::uint64_t pos = pos_;
  const std::uint64_t file_size = map_.size();
  if (pos >= file_size) return FrameKind::kEnd;
  const std::uint64_t remaining = file_size - pos;
  const char* head = map_.data() + pos;

  const auto torn_tail = [&]() {
    bump(&SpillReadStats::torn_tail_bytes, remaining);
    pos_ = file_size;
    return FrameKind::kEnd;
  };
  const auto resync = [&]() {
    bump(&SpillReadStats::bytes_skipped, 1);
    pos_ = pos + 1;
    return FrameKind::kSkip;
  };

  if (remaining < 4) return torn_tail();
  const std::uint32_t marker = load_u32(head);

  if (marker == kSpillCommitMarker) {
    if (remaining < kCommitFrameBytes) return torn_tail();
    if (crc32c(head, kCommitFrameBytes - 4) !=
        load_u32(head + kCommitFrameBytes - 4)) {
      return resync();
    }
    bump(&SpillReadStats::commit_frames, 1);
    pos_ = pos + kCommitFrameBytes;
    return FrameKind::kCommit;
  }
  if (marker != kSpillBlockMarker) return resync();

  if (remaining < kBlockHeaderBytes + kBlockTrailerBytes) return torn_tail();
  if (crc32c(head, 20) != load_u32(head + 20)) return resync();
  const std::uint64_t session_id = load_u64(head + 4);
  const std::uint64_t payload_size = load_u64(head + 12);
  // The size field is CRC-protected, so a frame that does not fit in the
  // remaining bytes means the writer died mid-block: a torn tail.
  if (payload_size > remaining - kBlockHeaderBytes - kBlockTrailerBytes) {
    return torn_tail();
  }
  const std::uint64_t frame_bytes =
      kBlockHeaderBytes + payload_size + kBlockTrailerBytes;

  if (!decode) {
    if (ref != nullptr) {
      ref->session_id = session_id;
      ref->offset = pos;
    }
    pos_ = pos + frame_bytes;
    return FrameKind::kBlock;
  }

  // Decode straight from the mapping: no copy between page cache and the
  // column decoders.
  const char* payload = head + kBlockHeaderBytes;
  pos_ = pos + frame_bytes;
  out->reset();
  if (crc32c(payload, payload_size) != load_u32(payload + payload_size)) {
    bump(&SpillReadStats::blocks_skipped, 1);
    bump(&SpillReadStats::bytes_skipped, frame_bytes);
    return FrameKind::kBlock;
  }
  try {
    *out = decode_payload(payload, payload_size, session_id);
  } catch (const std::exception&) {
    // CRC-valid but undecodable: a writer bug or an adversarial file —
    // either way skip the block rather than abort the analysis.
    out->reset();
    bump(&SpillReadStats::blocks_skipped, 1);
    bump(&SpillReadStats::bytes_skipped, frame_bytes);
    return FrameKind::kBlock;
  }
  bump(&SpillReadStats::blocks_ok, 1);
  bump(&SpillReadStats::bytes_salvaged, payload_size);
  return FrameKind::kBlock;
}

std::optional<SessionRecordGroup> SpillReader::next() {
  for (;;) {
    std::optional<SessionRecordGroup> group;
    switch (parse_frame(/*decode=*/true, &group, nullptr)) {
      case FrameKind::kBlock:
        if (group.has_value()) return group;
        break;  // corrupt block skipped; keep scanning
      case FrameKind::kCommit:
      case FrameKind::kSkip:
        break;
      case FrameKind::kEnd:
        return std::nullopt;
    }
  }
}

std::vector<SpillBlockRef> SpillReader::index() {
  pos_ = kFileHeaderBytes;
  std::vector<SpillBlockRef> refs;
  for (;;) {
    SpillBlockRef ref;
    switch (parse_frame(/*decode=*/false, nullptr, &ref)) {
      case FrameKind::kBlock:
        refs.push_back(ref);
        break;
      case FrameKind::kCommit:
      case FrameKind::kSkip:
        break;
      case FrameKind::kEnd:
        return refs;
    }
  }
}

std::optional<SessionRecordGroup> SpillReader::read_at(
    const SpillBlockRef& ref) {
  pos_ = ref.offset;
  std::optional<SessionRecordGroup> group;
  parse_frame(/*decode=*/true, &group, nullptr);
  return group;
}

const char* SpillReader::block_payload(const SpillBlockRef& ref,
                                       std::uint64_t* payload_size) const {
  // The header checks parse_frame makes before decoding, in the same
  // order.
  const std::uint64_t file_size = map_.size();
  if (ref.offset > file_size ||
      file_size - ref.offset < kBlockHeaderBytes + kBlockTrailerBytes) {
    return nullptr;
  }
  const char* head = map_.data() + ref.offset;
  if (load_u32(head) != kSpillBlockMarker ||
      crc32c(head, 20) != load_u32(head + 20)) {
    return nullptr;
  }
  *payload_size = load_u64(head + 12);
  if (*payload_size >
      file_size - ref.offset - kBlockHeaderBytes - kBlockTrailerBytes) {
    return nullptr;
  }
  return head + kBlockHeaderBytes;
}

std::optional<SpillBlockCounts> SpillReader::block_counts(
    const SpillBlockRef& ref) const {
  std::uint64_t size = 0;
  const char* payload = block_payload(ref, &size);
  if (payload == nullptr ||
      crc32c(payload, size) != load_u32(payload + size)) {
    return std::nullopt;
  }
  codec::Reader r{payload, payload + size};
  try {
    return get_counts(r);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool SpillReader::read_into(const SpillBlockRef& ref,
                            const SpillBlockCounts& counts, Dataset& out,
                            const SpillBlockCounts& at) {
  std::uint64_t size = 0;
  const char* payload = block_payload(ref, &size);
  codec::Reader r{payload, payload + size};
  // The slices were sized from `counts`; anything else means the file
  // was rewritten underneath, and decoding would write past them.
  bool same = false;
  if (payload != nullptr) {
    try {
      same = get_counts(r) == counts;
    } catch (const std::exception&) {
    }
  }
  if (!same) {
    throw std::runtime_error("spill: " + path_.string() +
                             " changed while loading");
  }
  try {
    decode_streams(r, ref.session_id, counts, at, out);
  } catch (const std::exception&) {
    bump(&SpillReadStats::blocks_skipped, 1);
    bump(&SpillReadStats::bytes_skipped,
         kBlockHeaderBytes + size + kBlockTrailerBytes);
    return false;
  }
  bump(&SpillReadStats::blocks_ok, 1);
  bump(&SpillReadStats::bytes_salvaged, size);
  return true;
}

// ----------------------------------------------------------------- SpillSet

namespace {

/// One block of a spill set: its file and its position in that file's
/// index.
struct SetBlock {
  std::uint64_t session_id;
  std::size_t file;
  std::size_t block;
};

/// The canonical block order of a spill set: every file's index
/// concatenated in file order, then stable-sorted by session id — that is
/// (session id, file, offset) order, so a session split over blocks or
/// files concatenates them as the canonical in-memory merge does.
/// SpillSetStream and SpillSet::load both read blocks in this order.
std::vector<SetBlock> canonical_block_order(
    const std::vector<std::vector<SpillBlockRef>>& index) {
  std::vector<SetBlock> order;
  for (std::size_t f = 0; f < index.size(); ++f) {
    for (std::size_t b = 0; b < index[f].size(); ++b) {
      order.push_back(SetBlock{index[f][b].session_id, f, b});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const SetBlock& a, const SetBlock& b) {
                     return a.session_id < b.session_id;
                   });
  return order;
}

/// Merged ascending-session-id stream over a set of spill files, read in
/// canonical_block_order.  Corrupt blocks are skipped (accounted in
/// `stats`); a session whose every block is corrupt is absent from the
/// stream.
class SpillSetStream final : public SessionGroupStream {
 public:
  SpillSetStream(const std::vector<std::filesystem::path>& files,
                 SpillReadStats* stats) {
    for (const std::filesystem::path& file : files) {
      readers_.push_back(std::make_unique<SpillReader>(file, stats));
      index_.push_back(readers_.back()->index());
    }
    order_ = canonical_block_order(index_);
  }

  std::optional<SessionRecordGroup> next() override {
    while (cursor_ < order_.size()) {
      const std::uint64_t id = order_[cursor_].session_id;
      std::optional<SessionRecordGroup> group;
      while (cursor_ < order_.size() && order_[cursor_].session_id == id) {
        const SetBlock& b = order_[cursor_++];
        std::optional<SessionRecordGroup> piece =
            readers_[b.file]->read_at(index_[b.file][b.block]);
        if (!piece.has_value()) continue;  // corrupt block: salvage the rest
        if (!group.has_value()) {
          group = std::move(piece);
        } else {
          group->append(std::move(*piece));
        }
      }
      if (group.has_value()) return group;
    }
    return std::nullopt;
  }

 private:
  std::vector<std::unique_ptr<SpillReader>> readers_;
  std::vector<std::vector<SpillBlockRef>> index_;
  std::vector<SetBlock> order_;
  std::size_t cursor_ = 0;
};

/// Remove the (offset, length) ranges `gaps` from `out`, keeping the
/// order of everything else: one left shift of each stretch between gaps.
template <typename Record>
void close_gaps(std::vector<Record>& out,
                std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps) {
  if (gaps.empty()) return;
  std::sort(gaps.begin(), gaps.end());
  Record* write = out.data() + gaps.front().first;
  for (std::size_t g = 0; g < gaps.size(); ++g) {
    Record* from = out.data() + gaps[g].first + gaps[g].second;
    Record* to = g + 1 < gaps.size() ? out.data() + gaps[g + 1].first
                                     : out.data() + out.size();
    write = std::move(from, to, write);
  }
  out.resize(static_cast<std::size_t>(write - out.data()));
}

}  // namespace

std::unique_ptr<SessionGroupStream> SpillSet::open(
    SpillReadStats* stats) const {
  return std::make_unique<SpillSetStream>(files_, stats);
}

Dataset SpillSet::load(SpillReadStats* stats, std::size_t threads) const {
  // Both passes are one task per file, so workers beyond the file count
  // would only ever park.
  const std::size_t files = files_.size();
  runtime::Executor executor(std::min(runtime::resolve_thread_count(threads),
                                      std::max<std::size_t>(files, 1)));

  // Readers open in file order, so an unopenable file throws what open()
  // would throw, at any thread count.  Each reader keeps its own stats.
  std::vector<std::unique_ptr<SpillReader>> readers;
  readers.reserve(files);
  for (const std::filesystem::path& file : files_) {
    readers.push_back(std::make_unique<SpillReader>(file));
  }

  // Pass 1, one task per file: index it and count every block's records,
  // checking each payload CRC — the one check of it this load makes.
  std::vector<std::vector<SpillBlockRef>> index(files);
  std::vector<std::vector<std::optional<SpillBlockCounts>>> counts(files);
  std::vector<std::vector<SpillBlockCounts>> offsets(files);
  executor.parallel_for(
      files,
      [&](std::size_t f) {
        index[f] = readers[f]->index();
        counts[f].reserve(index[f].size());
        for (const SpillBlockRef& ref : index[f]) {
          counts[f].push_back(readers[f]->block_counts(ref));
        }
        offsets[f].resize(index[f].size());
      },
      nullptr, "spill_load");

  // A prefix sum over the canonical order gives each block its offset in
  // each output; the five outputs are sized once, one task each, with
  // huge-page advice so the first touch takes few faults.
  SpillBlockCounts totals{};
  for (const SetBlock& b : canonical_block_order(index)) {
    offsets[b.file][b.block] = totals;
    const SpillBlockCounts n = counts[b.file][b.block].value_or(
        SpillBlockCounts{});
    for (std::size_t s = 0; s < totals.size(); ++s) totals[s] += n[s];
  }
  Dataset data;
  executor.parallel_for(
      totals.size(),
      [&](std::size_t task) {
        for_each_stream(
            [&](std::size_t s, auto& out) {
              if (s != task) return;
              runtime::reserve_huge(out, totals[s]);
              out.resize(totals[s]);
            },
            data);
      },
      nullptr, "spill_load");

  // Pass 2, one task per file: decode its blocks in file order straight
  // into their slices.  A block counted in pass 1 that does not decode
  // leaves a gap.  A block pass 1 rejected goes through read_at, which
  // checks it again and accounts the skip.
  std::vector<std::vector<std::size_t>> gaps(files);
  executor.parallel_for(
      files,
      [&](std::size_t f) {
        for (std::size_t b = 0; b < index[f].size(); ++b) {
          if (!counts[f][b].has_value()) {
            if (readers[f]->read_at(index[f][b]).has_value()) {
              throw std::runtime_error("spill: " + files_[f].string() +
                                       " changed while loading");
            }
          } else if (!readers[f]->read_into(index[f][b], *counts[f][b], data,
                                            offsets[f][b])) {
            gaps[f].push_back(b);
          }
        }
      },
      nullptr, "spill_load");

  // Close the gaps, one stable compaction per affected stream.
  for_each_stream([&](std::size_t s, auto& out) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (std::size_t f = 0; f < files; ++f) {
      for (const std::size_t b : gaps[f]) {
        if ((*counts[f][b])[s] != 0) {
          ranges.emplace_back(offsets[f][b][s], (*counts[f][b])[s]);
        }
      }
    }
    close_gaps(out, std::move(ranges));
  }, data);

  if (stats != nullptr) {
    for (const auto& reader : readers) *stats += reader->stats();
  }
  return data;
}

}  // namespace vstream::telemetry
