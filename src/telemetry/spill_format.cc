#include "telemetry/spill_format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "failpoints/failpoint.h"
#include "sim/host_error.h"
#include "telemetry/crc32c.h"
#include "telemetry/spill_codec.h"

namespace vstream::telemetry {

namespace {

// --------------------------------------------------------------- encoding

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, 8);
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

// ------------------------------------------------------ columnar payloads
// Column order within each stream is the struct declaration order (see
// records.h; session_id is block-level and omitted).  Encoding per column
// lives in spill_codec.h; the helpers below just gather/scatter fields.

/// Decode-bomb guard: a block holds one session's records, so any count
/// beyond this is a writer bug or adversarial input, rejected before any
/// allocation is sized from it.
constexpr std::uint64_t kMaxBlockRecords = std::uint64_t{1} << 24;

template <typename Rec, typename Get>
void int_col(std::string& out, const std::vector<Rec>& recs,
             std::vector<std::uint64_t>& tmp, Get get) {
  tmp.clear();
  tmp.reserve(recs.size());
  for (const Rec& r : recs) {
    tmp.push_back(static_cast<std::uint64_t>(get(r)));
  }
  codec::encode_int_column(out, tmp);
}

template <typename Rec, typename Get>
void f64_col(std::string& out, const std::vector<Rec>& recs,
             std::vector<std::uint64_t>& tmp, Get get) {
  tmp.clear();
  tmp.reserve(recs.size());
  for (const Rec& r : recs) {
    tmp.push_back(std::bit_cast<std::uint64_t>(static_cast<double>(get(r))));
  }
  codec::encode_f64_column(out, tmp);
}

template <typename Rec, typename Get>
void bool_col(std::string& out, const std::vector<Rec>& recs,
              std::vector<std::uint8_t>& tmp, Get get) {
  tmp.clear();
  tmp.reserve(recs.size());
  for (const Rec& r : recs) {
    tmp.push_back(get(r) ? 1 : 0);
  }
  codec::encode_bool_column(out, tmp);
}

template <typename Rec, typename Set>
void get_int_col(codec::Reader& r, std::vector<Rec>& recs,
                 std::vector<std::uint64_t>& tmp, std::uint64_t max,
                 Set set) {
  codec::decode_int_column(r, recs.size(), tmp);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (tmp[i] > max) codec::fail("integer column value out of range");
    set(recs[i], tmp[i]);
  }
}

template <typename Rec, typename Set>
void get_f64_col(codec::Reader& r, std::vector<Rec>& recs,
                 std::vector<std::uint64_t>& tmp, Set set) {
  codec::decode_f64_column(r, recs.size(), tmp);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    set(recs[i], std::bit_cast<double>(tmp[i]));
  }
}

template <typename Rec, typename Set>
void get_bool_col(codec::Reader& r, std::vector<Rec>& recs,
                  std::vector<std::uint8_t>& tmp, Set set) {
  codec::decode_bool_column(r, recs.size(), tmp);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    set(recs[i], tmp[i] != 0);
  }
}

constexpr std::uint64_t kMaxU32 = 0xFFFFFFFFull;
constexpr std::uint64_t kMaxU64 = ~std::uint64_t{0};
constexpr std::uint64_t kMaxU8 = 0xFFull;

void encode_payload(std::string& out, const SessionRecordGroup& g,
                       std::vector<std::uint64_t>& tmp,
                       std::vector<std::uint8_t>& btmp) {
  codec::put_varint(out, g.player_sessions.size());
  codec::put_varint(out, g.cdn_sessions.size());
  codec::put_varint(out, g.player_chunks.size());
  codec::put_varint(out, g.cdn_chunks.size());
  codec::put_varint(out, g.tcp_snapshots.size());

  const auto& ps = g.player_sessions;
  int_col(out, ps, tmp, [](const auto& r) { return r.client_ip; });
  for (const auto& r : ps) codec::put_string(out, r.user_agent);
  f64_col(out, ps, tmp, [](const auto& r) { return r.video_duration_s; });
  f64_col(out, ps, tmp, [](const auto& r) { return r.start_time_ms; });
  f64_col(out, ps, tmp, [](const auto& r) { return r.startup_ms; });
  int_col(out, ps, tmp, [](const auto& r) { return r.chunks_requested; });
  bool_col(out, ps, btmp, [](const auto& r) { return r.completed; });

  const auto& cs = g.cdn_sessions;
  int_col(out, cs, tmp, [](const auto& r) { return r.observed_ip; });
  for (const auto& r : cs) codec::put_string(out, r.observed_user_agent);
  int_col(out, cs, tmp, [](const auto& r) { return r.pop; });
  int_col(out, cs, tmp, [](const auto& r) { return r.server; });
  for (const auto& r : cs) codec::put_string(out, r.org);
  int_col(out, cs, tmp, [](const auto& r) {
    return static_cast<std::uint8_t>(r.access);
  });
  for (const auto& r : cs) codec::put_string(out, r.city);
  for (const auto& r : cs) codec::put_string(out, r.country);
  f64_col(out, cs, tmp, [](const auto& r) { return r.client_distance_km; });

  const auto& pc = g.player_chunks;
  int_col(out, pc, tmp, [](const auto& r) { return r.chunk_id; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.request_sent_ms; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.dfb_ms; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.dlb_ms; });
  int_col(out, pc, tmp, [](const auto& r) { return r.bitrate_kbps; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.rebuffer_ms; });
  int_col(out, pc, tmp, [](const auto& r) { return r.rebuffer_count; });
  bool_col(out, pc, btmp, [](const auto& r) { return r.visible; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.avg_fps; });
  int_col(out, pc, tmp, [](const auto& r) { return r.dropped_frames; });
  int_col(out, pc, tmp, [](const auto& r) { return r.total_frames; });
  int_col(out, pc, tmp, [](const auto& r) { return r.retries; });
  int_col(out, pc, tmp, [](const auto& r) { return r.timeouts; });
  bool_col(out, pc, btmp, [](const auto& r) { return r.failed_over; });
  f64_col(out, pc, tmp, [](const auto& r) { return r.recovery_ms; });

  const auto& cc = g.cdn_chunks;
  int_col(out, cc, tmp, [](const auto& r) { return r.chunk_id; });
  f64_col(out, cc, tmp, [](const auto& r) { return r.dwait_ms; });
  f64_col(out, cc, tmp, [](const auto& r) { return r.dopen_ms; });
  f64_col(out, cc, tmp, [](const auto& r) { return r.dread_ms; });
  f64_col(out, cc, tmp, [](const auto& r) { return r.dbe_ms; });
  int_col(out, cc, tmp, [](const auto& r) {
    return static_cast<std::uint8_t>(r.cache_level);
  });
  int_col(out, cc, tmp, [](const auto& r) { return r.chunk_bytes; });
  int_col(out, cc, tmp, [](const auto& r) { return r.pop; });
  int_col(out, cc, tmp, [](const auto& r) { return r.server; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.served_stale; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.shed; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.hedged; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.hedge_won; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.budget_denied; });
  bool_col(out, cc, btmp, [](const auto& r) { return r.served_swr; });
  int_col(out, cc, tmp, [](const auto& r) {
    return static_cast<std::uint8_t>(r.breaker);
  });

  const auto& ts = g.tcp_snapshots;
  int_col(out, ts, tmp, [](const auto& r) { return r.chunk_id; });
  f64_col(out, ts, tmp, [](const auto& r) { return r.at_ms; });
  f64_col(out, ts, tmp, [](const auto& r) { return r.info.srtt_ms; });
  f64_col(out, ts, tmp, [](const auto& r) { return r.info.rttvar_ms; });
  int_col(out, ts, tmp, [](const auto& r) { return r.info.cwnd_segments; });
  int_col(out, ts, tmp,
          [](const auto& r) { return r.info.ssthresh_segments; });
  int_col(out, ts, tmp, [](const auto& r) { return r.info.mss_bytes; });
  int_col(out, ts, tmp, [](const auto& r) { return r.info.total_retrans; });
  int_col(out, ts, tmp, [](const auto& r) { return r.info.segments_out; });
  int_col(out, ts, tmp, [](const auto& r) { return r.info.bytes_acked; });
  bool_col(out, ts, btmp, [](const auto& r) { return r.info.in_slow_start; });
}

SessionRecordGroup decode_payload(const char* data, std::size_t size,
                                     std::uint64_t session_id,
                                     std::vector<std::uint64_t>& tmp,
                                     std::vector<std::uint8_t>& btmp) {
  codec::Reader r{data, data + size};
  SessionRecordGroup g;
  g.session_id = session_id;
  const std::uint64_t n_ps = codec::get_varint(r);
  const std::uint64_t n_cs = codec::get_varint(r);
  const std::uint64_t n_pc = codec::get_varint(r);
  const std::uint64_t n_cc = codec::get_varint(r);
  const std::uint64_t n_ts = codec::get_varint(r);
  if (n_ps > kMaxBlockRecords || n_cs > kMaxBlockRecords ||
      n_pc > kMaxBlockRecords || n_cc > kMaxBlockRecords ||
      n_ts > kMaxBlockRecords) {
    codec::fail("implausible record count in block");
  }

  auto& ps = g.player_sessions;
  ps.resize(n_ps);
  for (auto& rec : ps) rec.session_id = session_id;
  get_int_col(r, ps, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.client_ip = static_cast<std::uint32_t>(v);
              });
  for (auto& rec : ps) rec.user_agent = codec::get_string(r);
  get_f64_col(r, ps, tmp,
              [](auto& rec, double v) { rec.video_duration_s = v; });
  get_f64_col(r, ps, tmp, [](auto& rec, double v) { rec.start_time_ms = v; });
  get_f64_col(r, ps, tmp, [](auto& rec, double v) { rec.startup_ms = v; });
  get_int_col(r, ps, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.chunks_requested = static_cast<std::uint32_t>(v);
              });
  get_bool_col(r, ps, btmp, [](auto& rec, bool v) { rec.completed = v; });

  auto& cs = g.cdn_sessions;
  cs.resize(n_cs);
  for (auto& rec : cs) rec.session_id = session_id;
  get_int_col(r, cs, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.observed_ip = static_cast<std::uint32_t>(v);
              });
  for (auto& rec : cs) rec.observed_user_agent = codec::get_string(r);
  get_int_col(r, cs, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.pop = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, cs, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.server = static_cast<std::uint32_t>(v);
              });
  for (auto& rec : cs) rec.org = codec::get_string(r);
  get_int_col(r, cs, tmp, kMaxU8,
              [](auto& rec, std::uint64_t v) {
                rec.access = static_cast<net::AccessType>(v);
              });
  for (auto& rec : cs) rec.city = codec::get_string(r);
  for (auto& rec : cs) rec.country = codec::get_string(r);
  get_f64_col(r, cs, tmp,
              [](auto& rec, double v) { rec.client_distance_km = v; });

  auto& pc = g.player_chunks;
  pc.resize(n_pc);
  for (auto& rec : pc) rec.session_id = session_id;
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.chunk_id = static_cast<std::uint32_t>(v);
              });
  get_f64_col(r, pc, tmp,
              [](auto& rec, double v) { rec.request_sent_ms = v; });
  get_f64_col(r, pc, tmp, [](auto& rec, double v) { rec.dfb_ms = v; });
  get_f64_col(r, pc, tmp, [](auto& rec, double v) { rec.dlb_ms = v; });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.bitrate_kbps = static_cast<std::uint32_t>(v);
              });
  get_f64_col(r, pc, tmp, [](auto& rec, double v) { rec.rebuffer_ms = v; });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.rebuffer_count = static_cast<std::uint32_t>(v);
              });
  get_bool_col(r, pc, btmp, [](auto& rec, bool v) { rec.visible = v; });
  get_f64_col(r, pc, tmp, [](auto& rec, double v) { rec.avg_fps = v; });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.dropped_frames = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.total_frames = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.retries = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, pc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.timeouts = static_cast<std::uint32_t>(v);
              });
  get_bool_col(r, pc, btmp, [](auto& rec, bool v) { rec.failed_over = v; });
  get_f64_col(r, pc, tmp, [](auto& rec, double v) { rec.recovery_ms = v; });

  auto& cc = g.cdn_chunks;
  cc.resize(n_cc);
  for (auto& rec : cc) rec.session_id = session_id;
  get_int_col(r, cc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.chunk_id = static_cast<std::uint32_t>(v);
              });
  get_f64_col(r, cc, tmp, [](auto& rec, double v) { rec.dwait_ms = v; });
  get_f64_col(r, cc, tmp, [](auto& rec, double v) { rec.dopen_ms = v; });
  get_f64_col(r, cc, tmp, [](auto& rec, double v) { rec.dread_ms = v; });
  get_f64_col(r, cc, tmp, [](auto& rec, double v) { rec.dbe_ms = v; });
  get_int_col(r, cc, tmp, kMaxU8,
              [](auto& rec, std::uint64_t v) {
                rec.cache_level = static_cast<cdn::CacheLevel>(v);
              });
  get_int_col(r, cc, tmp, kMaxU64,
              [](auto& rec, std::uint64_t v) { rec.chunk_bytes = v; });
  get_int_col(r, cc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.pop = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, cc, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.server = static_cast<std::uint32_t>(v);
              });
  get_bool_col(r, cc, btmp, [](auto& rec, bool v) { rec.served_stale = v; });
  get_bool_col(r, cc, btmp, [](auto& rec, bool v) { rec.shed = v; });
  get_bool_col(r, cc, btmp, [](auto& rec, bool v) { rec.hedged = v; });
  get_bool_col(r, cc, btmp, [](auto& rec, bool v) { rec.hedge_won = v; });
  get_bool_col(r, cc, btmp,
               [](auto& rec, bool v) { rec.budget_denied = v; });
  get_bool_col(r, cc, btmp, [](auto& rec, bool v) { rec.served_swr = v; });
  get_int_col(r, cc, tmp, kMaxU8,
              [](auto& rec, std::uint64_t v) {
                rec.breaker = static_cast<cdn::BreakerState>(v);
              });

  auto& ts = g.tcp_snapshots;
  ts.resize(n_ts);
  for (auto& rec : ts) rec.session_id = session_id;
  get_int_col(r, ts, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.chunk_id = static_cast<std::uint32_t>(v);
              });
  get_f64_col(r, ts, tmp, [](auto& rec, double v) { rec.at_ms = v; });
  get_f64_col(r, ts, tmp, [](auto& rec, double v) { rec.info.srtt_ms = v; });
  get_f64_col(r, ts, tmp,
              [](auto& rec, double v) { rec.info.rttvar_ms = v; });
  get_int_col(r, ts, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.info.cwnd_segments = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, ts, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.info.ssthresh_segments = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, ts, tmp, kMaxU32,
              [](auto& rec, std::uint64_t v) {
                rec.info.mss_bytes = static_cast<std::uint32_t>(v);
              });
  get_int_col(r, ts, tmp, kMaxU64,
              [](auto& rec, std::uint64_t v) { rec.info.total_retrans = v; });
  get_int_col(r, ts, tmp, kMaxU64,
              [](auto& rec, std::uint64_t v) { rec.info.segments_out = v; });
  get_int_col(r, ts, tmp, kMaxU64,
              [](auto& rec, std::uint64_t v) { rec.info.bytes_acked = v; });
  get_bool_col(r, ts, btmp,
               [](auto& rec, bool v) { rec.info.in_slow_start = v; });

  if (r.p != r.end) codec::fail("trailing bytes in block payload");
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
    : map_(path), external_stats_(stats) {
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
    *out = decode_payload(payload, payload_size, session_id, col_, bcol_);
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

// ----------------------------------------------------------------- SpillSet

namespace {

/// Merged ascending-session-id stream over a set of spill files, driven by
/// a pre-sorted (session_id, file, offset) index.  Blocks for the same
/// session across files are concatenated in file order — the canonical
/// merge's tie-break.  Corrupt blocks are skipped (accounted in `stats`);
/// a session whose every block is corrupt is absent from the stream.
class SpillSetStream final : public SessionGroupStream {
 public:
  SpillSetStream(const std::vector<std::filesystem::path>& files,
                 SpillReadStats* stats) {
    readers_.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      readers_.push_back(std::make_unique<SpillReader>(files[i], stats));
      for (const SpillBlockRef& ref : readers_.back()->index()) {
        entries_.push_back(Entry{ref.session_id, i, ref.offset});
      }
    }
    std::sort(entries_.begin(), entries_.end(), [](const Entry& a,
                                                   const Entry& b) {
      if (a.session_id != b.session_id) return a.session_id < b.session_id;
      if (a.file != b.file) return a.file < b.file;
      return a.offset < b.offset;
    });
  }

  std::optional<SessionRecordGroup> next() override {
    while (cursor_ < entries_.size()) {
      const std::uint64_t id = entries_[cursor_].session_id;
      std::optional<SessionRecordGroup> group;
      while (cursor_ < entries_.size() &&
             entries_[cursor_].session_id == id) {
        std::optional<SessionRecordGroup> piece =
            read_entry(entries_[cursor_++]);
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
  struct Entry {
    std::uint64_t session_id;
    std::size_t file;
    std::uint64_t offset;
  };

  std::optional<SessionRecordGroup> read_entry(const Entry& e) {
    return readers_[e.file]->read_at(SpillBlockRef{e.session_id, e.offset});
  }

  std::vector<std::unique_ptr<SpillReader>> readers_;
  std::vector<Entry> entries_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<SessionGroupStream> SpillSet::open(
    SpillReadStats* stats) const {
  return std::make_unique<SpillSetStream>(files_, stats);
}

Dataset SpillSet::load(SpillReadStats* stats) const {
  Dataset data;
  std::unique_ptr<SessionGroupStream> stream = open(stats);
  while (std::optional<SessionRecordGroup> group = stream->next()) {
    for (auto& r : group->player_sessions) {
      data.player_sessions.push_back(std::move(r));
    }
    for (auto& r : group->cdn_sessions) {
      data.cdn_sessions.push_back(std::move(r));
    }
    for (auto& r : group->player_chunks) {
      data.player_chunks.push_back(std::move(r));
    }
    for (auto& r : group->cdn_chunks) {
      data.cdn_chunks.push_back(std::move(r));
    }
    for (auto& r : group->tcp_snapshots) {
      data.tcp_snapshots.push_back(std::move(r));
    }
  }
  return data;
}

}  // namespace vstream::telemetry
