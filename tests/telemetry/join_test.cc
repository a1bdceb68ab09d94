#include "telemetry/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace vstream::telemetry {
namespace {

/// Build a minimal two-session dataset by hand.
Dataset tiny_dataset() {
  Dataset d;
  for (std::uint64_t s : {1ull, 2ull}) {
    PlayerSessionRecord ps;
    ps.session_id = s;
    ps.client_ip = net::make_ip(10, 0, static_cast<std::uint8_t>(s), 5);
    ps.user_agent = "Chrome/Windows";
    ps.start_time_ms = 1'000.0 * static_cast<double>(s);
    d.player_sessions.push_back(ps);

    CdnSessionRecord cs;
    cs.session_id = s;
    cs.observed_ip = ps.client_ip;
    cs.observed_user_agent = ps.user_agent;
    cs.pop = 0;
    cs.org = "TestNet";
    d.cdn_sessions.push_back(cs);

    for (std::uint32_t c = 0; c < 3; ++c) {
      PlayerChunkRecord pc;
      pc.session_id = s;
      pc.chunk_id = c;
      pc.request_sent_ms = c * 2'000.0;
      pc.dfb_ms = 100.0;
      pc.dlb_ms = 900.0;
      pc.bitrate_kbps = 1'500;
      pc.rebuffer_ms = c == 1 ? 500.0 : 0.0;
      d.player_chunks.push_back(pc);

      CdnChunkRecord cc;
      cc.session_id = s;
      cc.chunk_id = c;
      cc.dwait_ms = 0.3;
      cc.dopen_ms = 0.5;
      cc.dread_ms = c == 0 ? 80.0 : 1.5;
      cc.dbe_ms = c == 0 ? 65.0 : 0.0;
      cc.cache_level = c == 0 ? cdn::CacheLevel::kMiss : cdn::CacheLevel::kRam;
      cc.chunk_bytes = 1'125'000;
      d.cdn_chunks.push_back(cc);

      TcpSnapshotRecord snap;
      snap.session_id = s;
      snap.chunk_id = c;
      snap.at_ms = c * 2'000.0 + 500.0;
      snap.info.srtt_ms = 50.0;
      snap.info.total_retrans = 2 * (c + 1);  // cumulative
      snap.info.segments_out = 100 * (c + 1); // cumulative
      d.tcp_snapshots.push_back(snap);
    }
  }
  return d;
}

TEST(JoinTest, JoinsBothSidesBySessionAndChunk) {
  const Dataset d = tiny_dataset();
  const JoinedDataset joined = JoinedDataset::build(d);
  ASSERT_EQ(joined.sessions().size(), 2u);
  EXPECT_EQ(joined.chunk_count(), 6u);
  for (const JoinedSession& s : joined.sessions()) {
    ASSERT_EQ(s.chunks.size(), 3u);
    for (std::uint32_t c = 0; c < 3; ++c) {
      const JoinedChunk& chunk = s.chunks[c];
      ASSERT_NE(chunk.player, nullptr);
      ASSERT_NE(chunk.cdn, nullptr);
      EXPECT_EQ(chunk.player->chunk_id, c);
      EXPECT_EQ(chunk.cdn->chunk_id, c);
      ASSERT_NE(chunk.last_snapshot, nullptr);
      EXPECT_EQ(chunk.last_snapshot->chunk_id, c);
    }
  }
}

TEST(JoinTest, CounterDeltasComputedPerChunk) {
  const Dataset d = tiny_dataset();
  const JoinedDataset joined = JoinedDataset::build(d);
  const JoinedSession& s = joined.sessions()[0];
  // Cumulative 2,4,6 -> per-chunk 2,2,2; segments 100 each.
  for (const JoinedChunk& chunk : s.chunks) {
    EXPECT_EQ(chunk.retransmissions, 2u);
    EXPECT_EQ(chunk.segments, 100u);
    EXPECT_NEAR(chunk.retx_rate(), 0.02, 1e-9);
  }
  EXPECT_EQ(s.total_retransmissions(), 6u);
  EXPECT_EQ(s.total_segments(), 300u);
  EXPECT_NEAR(s.retx_rate(), 0.02, 1e-9);
  EXPECT_TRUE(s.has_loss());
}

TEST(JoinTest, InterleavedChunkSnapshotsKeepLastInTimeOrder) {
  // Session 1's snapshots go back and forth between chunks 0 and 1 and
  // include one for a chunk the player never requested.  Each chunk's
  // context is the last snapshot in time order carrying its id, whatever
  // the record order, and the deltas follow from those snapshots alone.
  Dataset d = tiny_dataset();
  std::erase_if(d.tcp_snapshots, [](const TcpSnapshotRecord& snap) {
    return snap.session_id == 1;
  });
  const auto snap = [&d](std::uint32_t chunk, double at_ms,
                         std::uint64_t retrans, std::uint64_t segments) {
    TcpSnapshotRecord r;
    r.session_id = 1;
    r.chunk_id = chunk;
    r.at_ms = at_ms;
    r.info.total_retrans = retrans;
    r.info.segments_out = segments;
    d.tcp_snapshots.push_back(r);
  };
  // Deliberately out of time order: the join sorts by at_ms.
  snap(1, 3'000.0, 9, 400);
  snap(0, 500.0, 2, 100);
  snap(7, 2'000.0, 8, 380);
  snap(0, 1'500.0, 5, 220);
  snap(1, 1'000.0, 3, 150);
  snap(2, 3'500.0, 10, 450);
  snap(0, 200.0, 1, 40);

  canonicalize(d);
  const JoinedDataset joined = JoinedDataset::build(d);
  const JoinedSession& s = joined.sessions()[0];
  ASSERT_EQ(s.session_id, 1u);
  ASSERT_EQ(s.chunks.size(), 3u);

  // Reference: rescan every snapshot in time order for every chunk.
  for (const JoinedChunk& chunk : s.chunks) {
    const TcpSnapshotRecord* expected = nullptr;
    for (const TcpSnapshotRecord* r : s.snapshots) {
      if (r->chunk_id == chunk.player->chunk_id) expected = r;
    }
    EXPECT_EQ(chunk.last_snapshot, expected);
  }
  ASSERT_NE(s.chunks[0].last_snapshot, nullptr);
  EXPECT_EQ(s.chunks[0].last_snapshot->at_ms, 1'500.0);
  EXPECT_EQ(s.chunks[1].last_snapshot->at_ms, 3'000.0);
  EXPECT_EQ(s.chunks[2].last_snapshot->at_ms, 3'500.0);
  EXPECT_EQ(s.chunks[0].retransmissions, 5u);
  EXPECT_EQ(s.chunks[0].segments, 220u);
  EXPECT_EQ(s.chunks[1].retransmissions, 4u);
  EXPECT_EQ(s.chunks[1].segments, 180u);
  EXPECT_EQ(s.chunks[2].retransmissions, 1u);
  EXPECT_EQ(s.chunks[2].segments, 50u);

  // Session 2 is untouched: 2,2,2 / 100 each.
  const JoinedSession& other = joined.sessions()[1];
  for (const JoinedChunk& chunk : other.chunks) {
    EXPECT_EQ(chunk.retransmissions, 2u);
    EXPECT_EQ(chunk.segments, 100u);
  }
}

TEST(JoinTest, SessionAggregates) {
  const Dataset d = tiny_dataset();
  const JoinedDataset joined = JoinedDataset::build(d);
  const JoinedSession& s = joined.sessions()[0];
  EXPECT_NEAR(s.total_rebuffer_ms(), 500.0, 1e-9);
  EXPECT_NEAR(s.avg_bitrate_kbps(), 1'500.0, 1e-9);
  // Last chunk: request at 4000 + 100 + 900 = 5000 ms.
  EXPECT_NEAR(s.duration_ms(), 5'000.0, 1e-9);
  EXPECT_NEAR(s.rebuffer_rate_percent(), 10.0, 1e-9);
}

TEST(JoinTest, DropsSessionsMissingEitherSide) {
  Dataset d = tiny_dataset();
  d.cdn_sessions.pop_back();  // session 2 loses its CDN record
  const JoinedDataset joined = JoinedDataset::build(d);
  EXPECT_EQ(joined.sessions().size(), 1u);
  EXPECT_EQ(joined.dropped_incomplete(), 1u);
}

TEST(JoinTest, DropsProxySessions) {
  const Dataset d = tiny_dataset();
  ProxyFilterResult proxies;
  proxies.proxy_sessions.insert(1);
  const JoinedDataset joined = JoinedDataset::build(d, &proxies);
  ASSERT_EQ(joined.sessions().size(), 1u);
  EXPECT_EQ(joined.sessions()[0].session_id, 2u);
  EXPECT_EQ(joined.dropped_as_proxy(), 1u);
}

TEST(JoinTest, ChunksSortedByChunkId) {
  Dataset d = tiny_dataset();
  // Shuffle the player chunk order.
  std::swap(d.player_chunks[0], d.player_chunks[2]);
  const JoinedDataset joined = JoinedDataset::build(d);
  for (const JoinedSession& s : joined.sessions()) {
    for (std::size_t i = 1; i < s.chunks.size(); ++i) {
      EXPECT_LT(s.chunks[i - 1].player->chunk_id, s.chunks[i].player->chunk_id);
    }
  }
}

TEST(JoinTest, MissingCdnChunkLeavesNullSide) {
  Dataset d = tiny_dataset();
  d.cdn_chunks.erase(d.cdn_chunks.begin());  // session 1, chunk 0
  const JoinedDataset joined = JoinedDataset::build(d);
  const JoinedSession& s = joined.sessions()[0];
  ASSERT_EQ(s.chunks.size(), 3u);
  EXPECT_EQ(s.chunks[0].cdn, nullptr);
  EXPECT_NE(s.chunks[1].cdn, nullptr);
}

TEST(JoinTest, EmptyDatasetYieldsEmptyJoin) {
  const Dataset d;
  const JoinedDataset joined = JoinedDataset::build(d);
  EXPECT_TRUE(joined.sessions().empty());
  EXPECT_EQ(joined.chunk_count(), 0u);
}

TEST(JoinTest, BuildRejectsEachOutOfOrderStream) {
  // Moving a stream's first record (session 1) to its end breaks
  // ascending session-id order in that stream alone; build names it.
  const auto expect_rejected = [](auto stream, const std::string& name) {
    SCOPED_TRACE(name);
    Dataset d = tiny_dataset();
    auto& records = d.*stream;
    std::rotate(records.begin(), records.begin() + 1, records.end());
    try {
      (void)JoinedDataset::build(d);
      ADD_FAILURE() << "out-of-order stream accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(&Dataset::player_sessions, "player_sessions");
  expect_rejected(&Dataset::cdn_sessions, "cdn_sessions");
  expect_rejected(&Dataset::player_chunks, "player_chunks");
  expect_rejected(&Dataset::cdn_chunks, "cdn_chunks");
  expect_rejected(&Dataset::tcp_snapshots, "tcp_snapshots");
}

TEST(JoinTest, CanonicalizeKeepsPerSessionRecordOrder) {
  // Duplicates for session 1 appended after session 2's records: out of
  // order until canonicalize moves each behind session 1's originals.
  Dataset d = tiny_dataset();
  CdnChunkRecord dup_chunk;
  dup_chunk.session_id = 1;
  dup_chunk.chunk_id = 0;
  dup_chunk.dread_ms = 999.0;
  d.cdn_chunks.push_back(dup_chunk);
  PlayerSessionRecord dup_session;
  dup_session.session_id = 1;
  dup_session.user_agent = "Override/UA";
  d.player_sessions.push_back(dup_session);

  canonicalize(d);
  ASSERT_EQ(d.cdn_chunks.size(), 7u);
  EXPECT_EQ(d.cdn_chunks[3].session_id, 1u);
  EXPECT_DOUBLE_EQ(d.cdn_chunks[3].dread_ms, 999.0);
  EXPECT_EQ(d.player_sessions[1].user_agent, "Override/UA");

  const JoinedDataset joined = JoinedDataset::build(d);
  ASSERT_EQ(joined.sessions().size(), 2u);
  const JoinedSession& s = joined.sessions()[0];
  ASSERT_EQ(s.session_id, 1u);
  EXPECT_EQ(s.player->user_agent, "Override/UA");  // last wins
  ASSERT_NE(s.chunks[0].cdn, nullptr);
  EXPECT_DOUBLE_EQ(s.chunks[0].cdn->dread_ms, 80.0);  // first wins
}

TEST(JoinTest, CdnChunksPairByIdFirstInStreamWinsInAnyOrder) {
  // CDN chunks out of id order with a later duplicate, player chunks whose
  // id goes back and one id with no CDN record: each player chunk pairs
  // with the first CDN record of its id in stream order.
  const std::vector<PlayerSessionRecord> player(1);
  const std::vector<CdnSessionRecord> cdn_session(1);
  std::vector<PlayerChunkRecord> player_chunks;
  for (const std::uint32_t id : {2u, 0u, 1u, 2u, 5u}) {
    PlayerChunkRecord r;
    r.chunk_id = id;
    player_chunks.push_back(r);
  }
  std::vector<CdnChunkRecord> cdn_chunks;
  for (const std::uint32_t id : {1u, 2u, 0u, 2u, 3u}) {
    CdnChunkRecord r;
    r.chunk_id = id;
    cdn_chunks.push_back(r);
  }
  StreamingJoiner joiner;
  const std::optional<JoinedSession> joined =
      joiner.join({0, player, cdn_session, player_chunks, cdn_chunks, {}});
  ASSERT_TRUE(joined.has_value());
  // Chunks come back in id order: 0, 1, 2, 2, 5.
  const std::vector<const CdnChunkRecord*> expected = {
      &cdn_chunks[2], &cdn_chunks[0], &cdn_chunks[1], &cdn_chunks[1],
      nullptr};
  ASSERT_EQ(joined->chunks.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(joined->chunks[i].cdn, expected[i]) << "chunk " << i;
  }
}

TEST(JoinTest, RecordHelpers) {
  CdnChunkRecord cc;
  cc.dwait_ms = 1.0;
  cc.dopen_ms = 2.0;
  cc.dread_ms = 75.0;
  cc.dbe_ms = 65.0;
  cc.cache_level = cdn::CacheLevel::kMiss;
  EXPECT_FALSE(cc.cache_hit());
  EXPECT_NEAR(cc.server_total_ms(), 78.0, 1e-9);
  EXPECT_NEAR(cc.dcdn_ms(), 13.0, 1e-9);

  PlayerChunkRecord pc;
  pc.dfb_ms = 1'000.0;
  pc.dlb_ms = 2'000.0;
  EXPECT_NEAR(pc.download_rate(6.0), 2.0, 1e-9);
}

}  // namespace
}  // namespace vstream::telemetry
