#include "telemetry/spill_format.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/crc32c.h"
#include "telemetry/spill_sink.h"

namespace vstream::telemetry {
namespace {

class SpillFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("vstream_spill_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + name);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path file(const char* name) const { return dir_ / name; }

  std::filesystem::path dir_;
};

/// One session with every field of every record type set to a distinctive
/// value, so a lossy or reordered encoding shows up as a mismatch.
SessionRecordGroup full_group(std::uint64_t id) {
  SessionRecordGroup g;
  g.session_id = id;

  PlayerSessionRecord ps;
  ps.session_id = id;
  ps.client_ip = 0x0A00FF01 + static_cast<std::uint32_t>(id);
  ps.user_agent = "Safari/OSX " + std::to_string(id);
  ps.video_duration_s = 1'234.5 + static_cast<double>(id);
  ps.start_time_ms = 0.1 * static_cast<double>(id);
  ps.startup_ms = 789.25;
  ps.chunks_requested = 42;
  ps.completed = (id % 2) == 0;
  g.player_sessions.push_back(ps);

  CdnSessionRecord cs;
  cs.session_id = id;
  cs.observed_ip = 0xC0A80001;
  cs.observed_user_agent = "proxy-UA";
  cs.pop = 3;
  cs.server = 17;
  cs.org = "ExampleNet";
  cs.access = net::AccessType::kEnterprise;
  cs.city = "Springfield";
  cs.country = "US";
  cs.client_distance_km = 1'609.344;
  g.cdn_sessions.push_back(cs);

  PlayerChunkRecord pc;
  pc.session_id = id;
  pc.chunk_id = 7;
  pc.request_sent_ms = 14'000.125;
  pc.dfb_ms = 101.0078125;  // exact binary fraction: survives any rounding
  pc.dlb_ms = 900.5;
  pc.bitrate_kbps = 3'000;
  pc.rebuffer_ms = 250.75;
  pc.rebuffer_count = 2;
  pc.visible = false;
  pc.avg_fps = 59.94;
  pc.dropped_frames = 5;
  pc.total_frames = 360;
  pc.retries = 1;
  pc.timeouts = 1;
  pc.failed_over = true;
  pc.recovery_ms = 450.0;
  g.player_chunks.push_back(pc);

  CdnChunkRecord cc;
  cc.session_id = id;
  cc.chunk_id = 7;
  cc.dwait_ms = 0.3;
  cc.dopen_ms = 0.5;
  cc.dread_ms = 80.0;
  cc.dbe_ms = 65.0;
  cc.cache_level = cdn::CacheLevel::kDisk;
  cc.chunk_bytes = 1'125'000;
  cc.pop = 3;
  cc.server = 18;
  cc.served_stale = true;
  cc.shed = true;
  cc.hedged = true;
  cc.hedge_won = false;
  cc.budget_denied = true;
  cc.served_swr = true;
  cc.breaker = cdn::BreakerState::kHalfOpen;
  g.cdn_chunks.push_back(cc);

  TcpSnapshotRecord snap;
  snap.session_id = id;
  snap.chunk_id = 7;
  snap.at_ms = 14'500.0;
  snap.info.srtt_ms = 48.875;
  snap.info.rttvar_ms = 12.25;
  snap.info.cwnd_segments = 64;
  snap.info.ssthresh_segments = 32;
  snap.info.mss_bytes = 1'448;
  snap.info.total_retrans = 9;
  snap.info.segments_out = 4'096;
  snap.info.bytes_acked = 5'931'008;
  snap.info.in_slow_start = true;
  g.tcp_snapshots.push_back(snap);
  return g;
}

void expect_groups_equal(const SessionRecordGroup& a,
                         const SessionRecordGroup& b) {
  // Defaulted record equality: every field, so none can be left out.
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.player_sessions, b.player_sessions);
  EXPECT_EQ(a.cdn_sessions, b.cdn_sessions);
  EXPECT_EQ(a.player_chunks, b.player_chunks);
  EXPECT_EQ(a.cdn_chunks, b.cdn_chunks);
  EXPECT_EQ(a.tcp_snapshots, b.tcp_snapshots);
}

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A Dataset's five streams as one group, to compare with
/// expect_groups_equal.
SessionRecordGroup as_group(const Dataset& data) {
  SessionRecordGroup g;
  g.player_sessions = data.player_sessions;
  g.cdn_sessions = data.cdn_sessions;
  g.player_chunks = data.player_chunks;
  g.cdn_chunks = data.cdn_chunks;
  g.tcp_snapshots = data.tcp_snapshots;
  return g;
}

/// The oracle for SpillSet::load: the merged stream drained into one
/// Dataset, group after group, with the stream's salvage stats.
Dataset drain_set(const SpillSet& set, SpillReadStats* stats) {
  SessionRecordGroup all;
  const auto stream = set.open(stats);
  while (auto group = stream->next()) all.append(std::move(*group));
  return Dataset{std::move(all.player_sessions), std::move(all.cdn_sessions),
                 std::move(all.player_chunks), std::move(all.cdn_chunks),
                 std::move(all.tcp_snapshots)};
}

/// load() at 1 and at 4 workers yields the stream oracle's records, in
/// its order, and its SpillReadStats.
void expect_load_matches_stream(const SpillSet& set) {
  SpillReadStats oracle_stats;
  const SessionRecordGroup oracle = as_group(drain_set(set, &oracle_stats));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SpillReadStats stats;
    const Dataset loaded = set.load(&stats, threads);
    expect_groups_equal(oracle, as_group(loaded));
    EXPECT_EQ(stats, oracle_stats);
  }
}

TEST_F(SpillFormatTest, RoundTripsEveryFieldBitExact) {
  const auto path = file("roundtrip.vspill");
  std::uint64_t blocks = 0;
  {
    // Write, flush_committed (a checkpoint commit), write again past the
    // staging buffer's drain threshold, close: the reader must see every
    // block exactly once, in write order.
    SpillWriter writer(path);
    writer.write(full_group(11));
    EXPECT_EQ(writer.flush_committed(), writer.committed_bytes());
    while (writer.committed_bytes() < 2 * kSpillIoBufferBytes) {
      writer.write(full_group(11 + writer.blocks_written()));
    }
    writer.close();
    blocks = writer.blocks_written();
    EXPECT_EQ(std::filesystem::file_size(path), writer.committed_bytes());
  }
  SpillReader reader(path);
  for (std::uint64_t i = 0; i < blocks; ++i) {
    auto read = reader.next();
    ASSERT_TRUE(read.has_value()) << "block " << i;
    expect_groups_equal(full_group(11 + i), *read);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.stats().corrupted());
  EXPECT_EQ(reader.stats().commit_frames, blocks);
}

TEST_F(SpillFormatTest, AppendOfAnEncodedBlockEqualsWrite) {
  // The engine encodes blocks on its workers and appends them in order;
  // the file must be the one write() makes of the same groups.
  SpillBlockEncoder encoder;
  std::string blocks[2];
  encoder.encode(full_group(4), blocks[0]);
  encoder.encode(full_group(9), blocks[1]);
  {
    SpillWriter written(file("written.vspill"));
    written.write(full_group(4));
    written.write(full_group(9));
    written.close();
    SpillWriter appended(file("appended.vspill"));
    for (const std::string& block : blocks) appended.append(block);
    appended.close();
    EXPECT_EQ(appended.committed_bytes(), written.committed_bytes());
  }
  EXPECT_EQ(read_all(file("appended.vspill")), read_all(file("written.vspill")));
}

TEST_F(SpillFormatTest, IndexAndRandomAccessRead) {
  const auto path = file("index.vspill");
  {
    SpillWriter writer(path);
    // Completion order is not id order — the index must not care.
    writer.write(full_group(30));
    writer.write(full_group(10));
    writer.write(full_group(20));
    writer.close();
  }
  SpillReader reader(path);
  const std::vector<SpillBlockRef> index = reader.index();
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index[0].session_id, 30u);
  EXPECT_EQ(index[1].session_id, 10u);
  EXPECT_EQ(index[2].session_id, 20u);
  auto at1 = reader.read_at(index[1]);
  ASSERT_TRUE(at1.has_value());
  expect_groups_equal(full_group(10), *at1);
  auto at0 = reader.read_at(index[0]);
  ASSERT_TRUE(at0.has_value());
  expect_groups_equal(full_group(30), *at0);
}

TEST_F(SpillFormatTest, OneFileStreamsAndLoadsInIdOrder) {
  // The readers sort the block index by session id: a file in any order
  // streams and loads in canonical order.
  {
    SpillWriter writer(file("run.vspill"));
    for (const std::uint64_t id : {5, 1, 4, 2}) writer.write(full_group(id));
    writer.close();
  }
  SpillSet set;
  set.add_file(file("run.vspill"));
  const auto stream = set.open();
  std::vector<std::uint64_t> ids;
  while (auto group = stream->next()) ids.push_back(group->session_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 4, 5}));
  expect_load_matches_stream(set);
}

TEST_F(SpillFormatTest, SecondFileIsRefused) {
  SpillSet set;
  set.add_file(file("run.vspill"));
  EXPECT_THROW(set.add_file(file("other.vspill")), std::invalid_argument);
  EXPECT_EQ(set.file(), file("run.vspill"));
}

TEST_F(SpillFormatTest, RangesHoldWholeSessionsInIdOrder) {
  // 2 * kSpillRangeSessions + 3 sessions, written in descending id order,
  // and the session at the first cut (id kSpillRangeSessions - 1) in two
  // blocks at opposite ends of the file: three ranges, each holding whole
  // sessions in ascending id order, the split session's blocks in file
  // order.
  constexpr std::uint64_t kSessions = 2 * kSpillRangeSessions + 3;
  constexpr std::uint64_t kSplit = kSpillRangeSessions - 1;
  SessionRecordGroup tail = full_group(kSplit);
  tail.player_sessions.clear();
  {
    SpillWriter writer(file("run.vspill"));
    for (std::uint64_t id = kSessions; id-- > 0;) writer.write(full_group(id));
    writer.write(tail);
    writer.close();
  }
  SpillSet set;
  set.add_file(file("run.vspill"));
  SpillReadStats stats;
  const auto ranges = set.ranges(&stats);
  EXPECT_EQ(stats.commit_frames, kSessions + 1);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].size(), kSpillRangeSessions + 1);
  EXPECT_EQ(ranges[1].size(), kSpillRangeSessions);
  EXPECT_EQ(ranges[2].size(), 3u);
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> want;
  for (const auto& range : ranges) {
    for (const SpillBlockRef& ref : range) ids.push_back(ref.session_id);
  }
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    want.push_back(id);
    if (id == kSplit) want.push_back(id);
  }
  EXPECT_EQ(ids, want);
  EXPECT_EQ(ranges[0][kSplit].session_id, kSplit);
  EXPECT_EQ(ranges[0][kSplit + 1].session_id, kSplit);
  EXPECT_LT(ranges[0][kSplit].offset, ranges[0][kSplit + 1].offset);
  expect_load_matches_stream(set);
}

TEST_F(SpillFormatTest, DuplicateIdsWithinOneFileMergeInFileOrder) {
  SessionRecordGroup first;
  first.session_id = 3;
  PlayerChunkRecord pc0;
  pc0.session_id = 3;
  pc0.chunk_id = 0;
  first.player_chunks.push_back(pc0);
  SessionRecordGroup second;
  second.session_id = 3;
  PlayerChunkRecord pc1;
  pc1.session_id = 3;
  pc1.chunk_id = 1;
  second.player_chunks.push_back(pc1);

  {
    SpillWriter w(file("dup.vspill"));
    w.write(first);
    w.write(second);
    w.close();
  }
  SpillSet set;
  set.add_file(file("dup.vspill"));
  const auto stream = set.open();
  auto group = stream->next();
  ASSERT_TRUE(group.has_value());
  ASSERT_EQ(group->player_chunks.size(), 2u);
  EXPECT_EQ(group->player_chunks[0].chunk_id, 0u);
  EXPECT_EQ(group->player_chunks[1].chunk_id, 1u);
  expect_load_matches_stream(set);
}

TEST_F(SpillFormatTest, RejectsBadMagic) {
  const auto path = file("bad.vspill");
  const auto rejection = [&](const std::string& bytes) -> std::string {
    write_all(path, bytes);
    try {
      SpillReader reader(path);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "accepted a " << bytes.size() << "-byte file";
    return "";
  };
  EXPECT_NE(rejection("this is not a spill file").find("bad magic"),
            std::string::npos);
  // A version-2 header: only version 4 is supported.
  EXPECT_NE(rejection(std::string("VSPL\x02\0\0\0", 8))
                .find("unsupported version"),
            std::string::npos);
  // Version 3 held cdn_chunks' breaker column after served_swr: refused,
  // never mis-decoded.
  EXPECT_NE(rejection(std::string("VSPL\x03\0\0\0", 8))
                .find("unsupported version"),
            std::string::npos);
  // Too short to hold a header: empty (nothing to map) and 5 bytes.
  EXPECT_NE(rejection("").find("truncated header"), std::string::npos);
  EXPECT_NE(rejection("VSPL\x03").find("truncated header"),
            std::string::npos);
}

TEST_F(SpillFormatTest, RejectsMissingFile) {
  EXPECT_THROW(SpillReader reader(file("nope.vspill")), std::runtime_error);
}

TEST_F(SpillFormatTest, TruncatedTailIsDroppedNotFatal) {
  // A writer killed mid-frame leaves a torn tail; recovery keeps every
  // fully committed block and accounts the dropped bytes.
  const auto path = file("trunc.vspill");
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    writer.write(full_group(2));
    writer.close();
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 25);  // into block 2's trailer
  SpillReader reader(path);
  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  expect_groups_equal(full_group(1), *first);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.stats().corrupted());
  EXPECT_GT(reader.stats().torn_tail_bytes, 0u);
  EXPECT_EQ(reader.stats().blocks_ok, 1u);
}

TEST_F(SpillFormatTest, CorruptPayloadByteSkipsOnlyThatBlock) {
  const auto path = file("flip.vspill");
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    writer.write(full_group(2));
    writer.write(full_group(3));
    writer.close();
  }
  // Flip one byte in the middle of block 2's payload.
  SpillReader probe(path);
  const auto index = probe.index();
  ASSERT_EQ(index.size(), 3u);
  const std::uint64_t target = index[1].offset + 24 + 40;  // inside payload
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(target));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(target));
    f.write(&b, 1);
  }
  SpillReader reader(path);
  std::vector<std::uint64_t> ids;
  while (auto g = reader.next()) ids.push_back(g->session_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(reader.stats().blocks_skipped, 1u);
  EXPECT_EQ(reader.stats().blocks_ok, 2u);
  EXPECT_TRUE(reader.stats().corrupted());
}

TEST_F(SpillFormatTest, ResumedWriterTruncatesUncommittedTail) {
  const auto path = file("resume.vspill");
  std::uint64_t committed = 0;
  std::uint64_t blocks = 0;
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    committed = writer.flush_committed();
    blocks = writer.blocks_written();
    // Simulate a crash after more (to-be-discarded) work: write another
    // block, then abandon the writer without recording its offset.
    writer.write(full_group(99));
    writer.flush_committed();
  }
  {
    SpillWriter writer(path, committed, blocks);
    EXPECT_EQ(writer.committed_bytes(), committed);
    EXPECT_EQ(writer.blocks_written(), blocks);
    writer.write(full_group(2));
    writer.close();
    EXPECT_EQ(writer.blocks_written(), 2u);
  }
  SpillReader reader(path);
  std::vector<std::uint64_t> ids;
  while (auto g = reader.next()) ids.push_back(g->session_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_FALSE(reader.stats().corrupted());
  EXPECT_EQ(reader.stats().commit_frames, 2u);
}

TEST_F(SpillFormatTest, ResumeRejectsOffsetBeyondFile) {
  const auto path = file("resume_bad.vspill");
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    writer.close();
  }
  const auto size = std::filesystem::file_size(path);
  EXPECT_THROW(SpillWriter(path, size + 100, 1), std::runtime_error);
  EXPECT_THROW(SpillWriter(path, 3, 0), std::runtime_error);
  EXPECT_THROW(SpillWriter(file("gone.vspill"), 8, 0), std::runtime_error);
}

/// Drain a reader over a possibly damaged file; must terminate and never
/// throw (the fuzz contract: recover or account, never crash).
std::vector<std::uint64_t> drain_ids(const std::filesystem::path& path) {
  SpillReader reader(path);
  std::vector<std::uint64_t> ids;
  while (auto g = reader.next()) ids.push_back(g->session_id);
  return ids;
}

TEST_F(SpillFormatTest, FuzzFlipEveryByteNeverCrashes) {
  const auto path = file("fuzz_flip.vspill");
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    writer.write(full_group(2));
    writer.close();
  }
  const std::string clean = read_all(path);
  const auto mutant = file("fuzz_flip_mut.vspill");
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xA5);
    write_all(mutant, bytes);
    if (i < 8) {
      // Header damage is environmental (wrong magic/version): a structured
      // throw, never UB.
      EXPECT_THROW(drain_ids(mutant), std::runtime_error) << "byte " << i;
      continue;
    }
    std::vector<std::uint64_t> ids;
    EXPECT_NO_THROW(ids = drain_ids(mutant)) << "byte " << i;
    // Damage past the header loses at most the enclosing block.
    EXPECT_LE(ids.size(), 2u) << "byte " << i;
  }
}

TEST_F(SpillFormatTest, FuzzTruncateEveryOffsetNeverCrashes) {
  const auto path = file("fuzz_trunc.vspill");
  {
    SpillWriter writer(path);
    writer.write(full_group(1));
    writer.write(full_group(2));
    writer.close();
  }
  const std::string clean = read_all(path);
  const auto mutant = file("fuzz_trunc_mut.vspill");
  for (std::size_t len = 0; len <= clean.size(); ++len) {
    write_all(mutant, clean.substr(0, len));
    if (len < 8) {
      EXPECT_THROW(drain_ids(mutant), std::runtime_error) << "len " << len;
      continue;
    }
    std::vector<std::uint64_t> ids;
    EXPECT_NO_THROW(ids = drain_ids(mutant)) << "len " << len;
    // Truncation only ever drops a suffix of the committed blocks.
    ASSERT_LE(ids.size(), 2u) << "len " << len;
    if (!ids.empty()) {
      EXPECT_EQ(ids[0], 1u) << "len " << len;
    }
  }
}

TEST_F(SpillFormatTest, LoadMatchesStreamOnEveryFlipAndTruncation) {
  // A file with a session (3) in two blocks around another's; every
  // one-byte flip and every truncation must load to what the stream
  // yields, records and salvage stats alike.
  const std::filesystem::path path = file("run.vspill");
  {
    SpillWriter writer(path);
    for (const std::uint64_t id : {1, 3, 2, 3}) writer.write(full_group(id));
    writer.close();
  }
  SpillSet set;
  set.add_file(path);
  expect_load_matches_stream(set);

  const std::string clean = read_all(path);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    SCOPED_TRACE("flip " + std::to_string(i));
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xA5);
    write_all(path, bytes);
    if (i < 8) {
      EXPECT_THROW(set.load(nullptr, 4), std::runtime_error);
      continue;
    }
    expect_load_matches_stream(set);
  }
  for (std::size_t len = 0; len < clean.size(); ++len) {
    SCOPED_TRACE("len " + std::to_string(len));
    write_all(path, clean.substr(0, len));
    if (len < 8) {
      EXPECT_THROW(set.load(nullptr, 4), std::runtime_error);
      continue;
    }
    expect_load_matches_stream(set);
  }
}

TEST_F(SpillFormatTest, LoadClosesTheGapOfAnUndecodableBlock) {
  // Block 2 (session 2's first half) is reframed with valid header and
  // payload CRCs around a payload with one trailing byte: its counts read
  // fine, so the load reserves its slices, but it does not decode.  The
  // gap it leaves sits between good blocks (session 1, then session 2's
  // second half) and must be closed without a trace.
  const auto path = file("run.vspill");
  {
    SpillWriter writer(path);
    for (const std::uint64_t id : {1, 2, 3, 2, 4}) writer.write(full_group(id));
    writer.close();
  }
  std::uint64_t offset = 0;
  {
    SpillReader probe(path);
    const auto index = probe.index();
    ASSERT_EQ(index.size(), 5u);
    offset = index[1].offset;
  }
  std::string bytes = read_all(path);
  std::uint64_t payload_size = 0;
  for (int i = 0; i < 8; ++i) {
    payload_size |= std::uint64_t{static_cast<unsigned char>(
                        bytes[offset + 12 + i])}
                    << (8 * i);
  }
  const auto put_le = [](std::string& out, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  const std::string payload = bytes.substr(offset + 24, payload_size) + '\0';
  std::string frame = bytes.substr(offset, 12);  // marker + session id
  put_le(frame, payload.size(), 8);
  put_le(frame, crc32c(frame.data(), frame.size()), 4);
  frame += payload;
  put_le(frame, crc32c(payload.data(), payload.size()), 4);
  bytes.replace(offset, 24 + payload_size + 4, frame);
  write_all(path, bytes);

  {
    SpillReader reader(path);
    const auto index = reader.index();
    ASSERT_EQ(index.size(), 5u);
    EXPECT_EQ(reader.block_counts(index[1]), reader.block_counts(index[0]));
    EXPECT_FALSE(reader.read_at(index[1]).has_value());
  }

  SpillSet set;
  set.add_file(path);
  expect_load_matches_stream(set);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SpillReadStats stats;
    const Dataset loaded = set.load(&stats, threads);
    EXPECT_EQ(stats.blocks_skipped, 1u);
    EXPECT_EQ(stats.blocks_ok, 4u);
    // One record per stream per intact block; a default-constructed
    // leftover would carry session id 0.
    ASSERT_EQ(loaded.player_chunks.size(),
              4u * full_group(1).player_chunks.size());
    std::vector<std::uint64_t> ids;
    for (const auto& r : loaded.player_sessions) ids.push_back(r.session_id);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    for (const auto& r : loaded.tcp_snapshots) EXPECT_NE(r.session_id, 0u);
    for (const auto& r : loaded.cdn_chunks) EXPECT_NE(r.session_id, 0u);
  }
}

TEST_F(SpillFormatTest, EnumBeyondItsLastEnumeratorIsUndecodable) {
  // The writer does not validate enums, so it frames a block whose header
  // and payload CRCs are valid around an enum column holding 7 — past
  // every enumerator.  Both read paths must skip that block as
  // undecodable (CSV export would write "unknown", which import refuses)
  // and keep the blocks around it.
  const auto mutations = {
      +[](SessionRecordGroup& g) {
        g.cdn_chunks[0].cache_level = static_cast<cdn::CacheLevel>(7);
      },
      +[](SessionRecordGroup& g) {
        g.cdn_sessions[0].access = static_cast<net::AccessType>(7);
      },
      +[](SessionRecordGroup& g) {
        g.cdn_chunks[0].breaker = static_cast<cdn::BreakerState>(7);
      },
  };
  int case_no = 0;
  for (const auto mutate : mutations) {
    SCOPED_TRACE("mutation " + std::to_string(case_no));
    const auto path =
        file(("enum-" + std::to_string(case_no++) + ".vspill").c_str());
    {
      SessionRecordGroup bad = full_group(2);
      mutate(bad);
      SpillWriter writer(path);
      writer.write(full_group(1));
      writer.write(bad);
      writer.write(full_group(3));
      writer.close();
    }
    SpillSet set;
    set.add_file(path);

    SpillReadStats stream_stats;
    std::vector<std::uint64_t> ids;
    const auto stream = set.open(&stream_stats);
    while (auto g = stream->next()) ids.push_back(g->session_id);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
    EXPECT_EQ(stream_stats.blocks_skipped, 1u);
    EXPECT_EQ(stream_stats.blocks_ok, 2u);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SpillReadStats stats;
      const Dataset loaded = set.load(&stats, threads);
      EXPECT_EQ(stats.blocks_skipped, 1u);
      ids.clear();
      for (const auto& r : loaded.player_sessions) ids.push_back(r.session_id);
      EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
      for (const auto& r : loaded.cdn_chunks) EXPECT_NE(r.session_id, 0u);
    }
    expect_load_matches_stream(set);
  }
}

TEST_F(SpillFormatTest, SpillSetAggregatesSalvageStats) {
  // A torn tail counts once in the stream's stats, beside the intact
  // blocks before it, whichever reader of the set met it.
  const auto path = file("run.vspill");
  {
    SpillWriter writer(path);
    for (const std::uint64_t id : {1, 3, 2}) writer.write(full_group(id));
    writer.close();
  }
  // Tear the tail mid-block.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 30);
  SpillSet set;
  set.add_file(path);

  SpillReadStats stats;
  const auto stream = set.open(&stats);
  std::vector<std::uint64_t> ids;
  while (auto g = stream->next()) ids.push_back(g->session_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_TRUE(stats.corrupted());
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(stats.blocks_ok, 2u);
  expect_load_matches_stream(set);
}

TEST_F(SpillFormatTest, SinkGroupsInterleavedSessionsAcrossCompletion) {
  // Records of two sessions interleave; a session that completes and then
  // records again starts a new group, as does one left live at finish().
  // The sink caches the group it wrote to last, so every step here must
  // reset or bypass that cache correctly.  finish() sorts the blocks by
  // session id, each session's in emission order, and they append to a
  // file that reads back block for block.
  const auto snap = [](std::uint64_t session, std::uint32_t chunk) {
    TcpSnapshotRecord r;
    r.session_id = session;
    r.chunk_id = chunk;
    return r;
  };
  SpillSink sink;
  sink.record(snap(2, 20));
  sink.record(snap(1, 10));
  sink.record(snap(1, 11));
  sink.record(snap(2, 21));
  sink.record(snap(1, 12));
  sink.session_complete(2);
  sink.record(snap(2, 22));
  sink.session_complete(1);
  sink.record(snap(1, 13));
  EXPECT_EQ(sink.live_sessions(), 2u);
  sink.finish();
  EXPECT_EQ(sink.live_sessions(), 0u);
  ASSERT_EQ(sink.blocks().size(), 4u);

  const auto path = file("sink.vspill");
  {
    SpillWriter writer(path);
    for (const SpillSink::Block& block : sink.blocks()) {
      writer.append(sink.frame(block));
    }
    writer.close();
    EXPECT_EQ(writer.blocks_written(), 4u);
  }
  SpillReader reader(path);
  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> blocks;
  while (auto group = reader.next()) {
    std::vector<std::uint32_t> chunks;
    for (const TcpSnapshotRecord& r : group->tcp_snapshots) {
      EXPECT_EQ(r.session_id, group->session_id);
      chunks.push_back(r.chunk_id);
    }
    blocks.emplace_back(group->session_id, std::move(chunks));
  }
  const std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>
      want = {{1, {10, 11, 12}}, {1, {13}}, {2, {20, 21}}, {2, {22}}};
  EXPECT_EQ(blocks, want);
  EXPECT_FALSE(reader.stats().corrupted());
  EXPECT_EQ(reader.stats().commit_frames, 4u);
}

TEST_F(SpillFormatTest, EmptySpillSet) {
  const SpillSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.open()->next().has_value());
  const Dataset loaded = set.load();
  EXPECT_TRUE(loaded.player_sessions.empty());
  expect_load_matches_stream(set);
}

TEST_F(SpillFormatTest, ExtremeDoublesRoundTripBitExact) {
  // NaN payloads, infinities, signed zero and denormals must survive the
  // double column codecs bit for bit.  Compared via bit patterns — EXPECT_EQ on the
  // values would pass -0.0 == 0.0 and fail NaN == NaN.
  const std::uint64_t patterns[] = {
      0x7FF8000000000000ull,  // quiet NaN
      0x7FF0000000000001ull,  // signaling NaN
      0xFFF8DEADBEEF1234ull,  // negative NaN with payload
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x8000000000000000ull,  // -0.0
      0x0000000000000000ull,  // +0.0
      0x0000000000000001ull,  // smallest denormal
      0x000FFFFFFFFFFFFFull,  // largest denormal
      0x0010000000000000ull,  // smallest normal
      0x7FEFFFFFFFFFFFFFull,  // largest finite
  };
  const auto path = file("extreme.vspill");
  SessionRecordGroup g;
  g.session_id = 1;
  for (const std::uint64_t bits : patterns) {
    PlayerChunkRecord pc;
    pc.session_id = 1;
    pc.dfb_ms = std::bit_cast<double>(bits);
    pc.dlb_ms = std::bit_cast<double>(bits);
    g.player_chunks.push_back(pc);
  }
  {
    SpillWriter writer(path);
    writer.write(g);
    writer.close();
  }
  SpillReader reader(path);
  const auto read = reader.next();
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->player_chunks.size(), std::size(patterns));
  for (std::size_t i = 0; i < std::size(patterns); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read->player_chunks[i].dfb_ms),
              patterns[i])
        << "record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read->player_chunks[i].dlb_ms),
              patterns[i])
        << "record " << i;
  }
  EXPECT_FALSE(reader.stats().corrupted());
}

}  // namespace
}  // namespace vstream::telemetry
