#include "telemetry/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "telemetry/record_group.h"
#include "telemetry/record_sink.h"

namespace vstream::telemetry {
namespace {

/// Same synthetic two-session dataset as join_test.cc, so the streaming
/// joiner can be compared against the batch join on familiar ground.
Dataset tiny_dataset() {
  Dataset d;
  for (std::uint64_t s : {1ull, 2ull}) {
    PlayerSessionRecord ps;
    ps.session_id = s;
    ps.user_agent = "Chrome/Windows";
    ps.start_time_ms = 1'000.0 * static_cast<double>(s);
    d.player_sessions.push_back(ps);

    CdnSessionRecord cs;
    cs.session_id = s;
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
      cc.dread_ms = 1.5;
      cc.cache_level = cdn::CacheLevel::kRam;
      d.cdn_chunks.push_back(cc);

      TcpSnapshotRecord snap;
      snap.session_id = s;
      snap.chunk_id = c;
      snap.at_ms = c * 2'000.0 + 500.0;
      snap.info.total_retrans = 2 * (c + 1);
      snap.info.segments_out = 100 * (c + 1);
      d.tcp_snapshots.push_back(snap);
    }
  }
  return d;
}

/// Feed every group of a canonical dataset through a StreamingJoiner.
struct StreamResult {
  std::vector<std::uint64_t> joined_ids;
  std::vector<std::size_t> chunk_counts;
  std::size_t joined = 0, proxied = 0, incomplete = 0;
};

StreamResult stream_join(const Dataset& d,
                         const ProxyFilterResult* proxies = nullptr) {
  StreamResult result;
  StreamingJoiner joiner(proxies);
  DatasetGroupStream stream(d);
  while (auto group = stream.next()) {
    if (const auto session = joiner.join(*group)) {
      result.joined_ids.push_back(session->session_id);
      result.chunk_counts.push_back(session->chunks.size());
    }
  }
  result.joined = joiner.sessions_joined();
  result.proxied = joiner.dropped_as_proxy();
  result.incomplete = joiner.dropped_incomplete();
  return result;
}

TEST(StreamingJoinTest, MatchesBatchJoinOnCleanDataset) {
  const Dataset d = tiny_dataset();
  const JoinedDataset batch = JoinedDataset::build(d);
  const StreamResult streamed = stream_join(d);

  ASSERT_EQ(streamed.joined, batch.sessions().size());
  for (std::size_t i = 0; i < batch.sessions().size(); ++i) {
    EXPECT_EQ(streamed.joined_ids[i], batch.sessions()[i].session_id);
    EXPECT_EQ(streamed.chunk_counts[i], batch.sessions()[i].chunks.size());
  }
  EXPECT_EQ(streamed.incomplete, batch.dropped_incomplete());
  EXPECT_EQ(streamed.proxied, batch.dropped_as_proxy());
}

TEST(StreamingJoinTest, JoinedSessionMatchesBatchAggregates) {
  const Dataset d = tiny_dataset();
  const JoinedDataset batch = JoinedDataset::build(d);
  StreamingJoiner joiner;
  DatasetGroupStream stream(d);
  std::size_t i = 0;
  while (auto group = stream.next()) {
    const auto session = joiner.join(*group);
    ASSERT_TRUE(session.has_value());
    const JoinedSession& ref = batch.sessions()[i++];
    EXPECT_EQ(session->total_retransmissions(), ref.total_retransmissions());
    EXPECT_EQ(session->total_segments(), ref.total_segments());
    EXPECT_DOUBLE_EQ(session->total_rebuffer_ms(), ref.total_rebuffer_ms());
    EXPECT_DOUBLE_EQ(session->duration_ms(), ref.duration_ms());
    EXPECT_DOUBLE_EQ(session->avg_bitrate_kbps(), ref.avg_bitrate_kbps());
    // Per-chunk snapshot attachment and counter deltas line up too.
    ASSERT_EQ(session->chunks.size(), ref.chunks.size());
    for (std::size_t c = 0; c < ref.chunks.size(); ++c) {
      EXPECT_EQ(session->chunks[c].retransmissions,
                ref.chunks[c].retransmissions);
      EXPECT_EQ(session->chunks[c].segments, ref.chunks[c].segments);
      ASSERT_NE(session->chunks[c].last_snapshot, nullptr);
      EXPECT_DOUBLE_EQ(session->chunks[c].last_snapshot->at_ms,
                       ref.chunks[c].last_snapshot->at_ms);
    }
  }
  EXPECT_EQ(i, batch.sessions().size());
}

TEST(StreamingJoinTest, DropsProxySessionsLikeBatch) {
  const Dataset d = tiny_dataset();
  ProxyFilterResult proxies;
  proxies.proxy_sessions.insert(1);
  const JoinedDataset batch = JoinedDataset::build(d, &proxies);
  const StreamResult streamed = stream_join(d, &proxies);
  EXPECT_EQ(streamed.joined, 1u);
  EXPECT_EQ(streamed.proxied, batch.dropped_as_proxy());
  EXPECT_EQ(streamed.joined_ids, (std::vector<std::uint64_t>{2}));
}

TEST(StreamingJoinTest, DropsIncompleteSessionsLikeBatch) {
  Dataset d = tiny_dataset();
  d.cdn_sessions.pop_back();  // session 2 loses its CDN side
  const JoinedDataset batch = JoinedDataset::build(d);
  const StreamResult streamed = stream_join(d);
  EXPECT_EQ(streamed.joined, batch.sessions().size());
  EXPECT_EQ(streamed.incomplete, 1u);
  EXPECT_EQ(streamed.incomplete, batch.dropped_incomplete());
}

TEST(StreamingJoinTest, OrphanCdnRecordsIgnoredSilentlyLikeBatch) {
  // A session with only chunk-level records (no session record on either
  // side) never enters the batch join's session table: not joined, not
  // counted.  The streaming joiner must mirror that.
  Dataset d = tiny_dataset();
  CdnChunkRecord orphan;
  orphan.session_id = 99;
  orphan.chunk_id = 0;
  d.cdn_chunks.push_back(orphan);
  TcpSnapshotRecord orphan_snap;
  orphan_snap.session_id = 99;
  d.tcp_snapshots.push_back(orphan_snap);

  const JoinedDataset batch = JoinedDataset::build(d);
  const StreamResult streamed = stream_join(d);
  EXPECT_EQ(streamed.joined, batch.sessions().size());
  EXPECT_EQ(streamed.incomplete, batch.dropped_incomplete());
  for (const std::uint64_t id : streamed.joined_ids) EXPECT_NE(id, 99u);
}

TEST(StreamingJoinTest, DuplicateCdnChunkFirstWinsLikeBatch) {
  Dataset d = tiny_dataset();
  // A duplicate (session 1, chunk 0) CDN record with a different payload;
  // the batch join's emplace keeps the first occurrence.
  CdnChunkRecord dup;
  dup.session_id = 1;
  dup.chunk_id = 0;
  dup.dread_ms = 999.0;
  d.cdn_chunks.push_back(dup);
  // Re-sort into canonical order (session id), duplicate after the original
  // — matching what the engine's stable merge would produce.
  std::stable_sort(d.cdn_chunks.begin(), d.cdn_chunks.end(),
                   [](const CdnChunkRecord& a, const CdnChunkRecord& b) {
                     return a.session_id < b.session_id;
                   });

  const JoinedDataset batch = JoinedDataset::build(d);
  StreamingJoiner joiner;
  DatasetGroupStream stream(d);
  auto group = stream.next();
  ASSERT_TRUE(group.has_value());
  const auto session = joiner.join(*group);
  ASSERT_TRUE(session.has_value());
  ASSERT_FALSE(session->chunks.empty());
  ASSERT_NE(session->chunks[0].cdn, nullptr);
  EXPECT_DOUBLE_EQ(session->chunks[0].cdn->dread_ms, 1.5);
  EXPECT_DOUBLE_EQ(batch.sessions()[0].chunks[0].cdn->dread_ms, 1.5);
}

TEST(StreamingJoinTest, DuplicateSessionRecordLastWinsLikeBatch) {
  Dataset d = tiny_dataset();
  PlayerSessionRecord dup;
  dup.session_id = 1;
  dup.user_agent = "Override/UA";
  d.player_sessions.push_back(dup);
  std::stable_sort(d.player_sessions.begin(), d.player_sessions.end(),
                   [](const PlayerSessionRecord& a,
                      const PlayerSessionRecord& b) {
                     return a.session_id < b.session_id;
                   });

  const JoinedDataset batch = JoinedDataset::build(d);
  StreamingJoiner joiner;
  DatasetGroupStream stream(d);
  auto group = stream.next();
  ASSERT_TRUE(group.has_value());
  const auto session = joiner.join(*group);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->player->user_agent, "Override/UA");
  EXPECT_EQ(batch.sessions()[0].player->user_agent, "Override/UA");
}

}  // namespace
}  // namespace vstream::telemetry
