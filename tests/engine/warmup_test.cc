// The dense warm-archive build (one backward pass over the admission
// sequence) must be indistinguishable from the reference write-through
// replay through a real cdn::TwoLevelCache: the same level for every probe
// the sharded engine could make, on every server index.
#include "engine/warmup.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cdn/fleet.h"
#include "client/abr.h"
#include "engine/engine.h"
#include "workload/catalog.h"
#include "workload/scenario.h"

namespace vstream {
namespace {

using cdn::CacheLevel;

struct WarmFixture {
  explicit WarmFixture(workload::Scenario s = workload::test_scenario())
      : scenario(std::move(s)) {}

  workload::Scenario scenario;
  sim::Rng rng{scenario.seed};
  workload::VideoCatalog catalog{scenario.catalog, rng};
  cdn::Fleet fleet{scenario.fleet, catalog.size()};
};

/// Probe every (server index, video, chunk, rung) of the catalog: both
/// archives agree everywhere, and a server index that does not own the
/// video always misses.
void expect_identical_archives(const engine::WarmArchive& dense,
                               const engine::WarmArchive& reference,
                               const WarmFixture& fx) {
  ASSERT_EQ(dense.slot_count(), reference.slot_count());
  const auto ladder = client::default_bitrate_ladder();
  std::size_t probes = 0;
  std::size_t mismatches = 0;
  std::size_t non_owner_hits = 0;
  for (std::uint32_t sidx = 0; sidx < fx.fleet.servers_per_pop(); ++sidx) {
    for (std::uint32_t video = 0; video < fx.catalog.size(); ++video) {
      const bool owner = fx.fleet.server_index_for_video(video) == sidx;
      const std::uint32_t chunks = fx.catalog.video(video).chunk_count;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        for (const std::uint32_t rung : ladder) {
          const cdn::ChunkKey key{video, c, rung};
          const CacheLevel got = dense.peek(sidx, key);
          const CacheLevel want = reference.peek(sidx, key);
          ++probes;
          if (got != want && mismatches++ == 0) {
            ADD_FAILURE() << "first mismatch: server " << sidx << " video "
                          << video << " chunk " << c << " rung " << rung
                          << ": " << cdn::to_string(got) << " vs "
                          << cdn::to_string(want);
          }
          if (!owner && got != CacheLevel::kMiss) ++non_owner_hits;
        }
      }
    }
  }
  EXPECT_EQ(probes, dense.slot_count() * fx.fleet.servers_per_pop());
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(non_owner_hits, 0u);
  // Not vacuous: both levels hold content.
  EXPECT_GT(dense.count(CacheLevel::kRam), 0u);
  EXPECT_GT(dense.count(CacheLevel::kDisk), 0u);
}

TEST(WarmupTest, BulkLruBuildMatchesWriteThroughReplay) {
  WarmFixture fx;
  ASSERT_EQ(fx.scenario.fleet.server.policy, cdn::PolicyKind::kLru);
  const engine::WarmArchive bulk = engine::build_warm_archive(
      fx.fleet, fx.catalog, /*disk_fill=*/0.92, /*universal_head=*/false);
  const engine::WarmArchive reference = engine::build_warm_archive(
      fx.fleet, fx.catalog, 0.92, false, engine::WarmBuildMode::kWriteThrough);
  expect_identical_archives(bulk, reference, fx);
}

TEST(WarmupTest, BulkBuildMatchesWithUniversalHeadAndOtherFills) {
  WarmFixture fx;
  for (const double fill : {0.5, 0.92}) {
    for (const bool head : {false, true}) {
      const engine::WarmArchive bulk =
          engine::build_warm_archive(fx.fleet, fx.catalog, fill, head);
      const engine::WarmArchive reference = engine::build_warm_archive(
          fx.fleet, fx.catalog, fill, head,
          engine::WarmBuildMode::kWriteThrough);
      SCOPED_TRACE(testing::Message() << "fill=" << fill << " head=" << head);
      expect_identical_archives(bulk, reference, fx);
    }
  }
}

TEST(WarmupTest, BulkBuildMatchesWriteThroughAtPaperScale) {
  const engine::RunOptions defaults;
  for (const std::uint64_t seed : {42ull, 1'000'045ull}) {
    workload::Scenario scenario = workload::paper_scenario();
    scenario.seed = seed;
    WarmFixture fx(scenario);
    const engine::WarmArchive bulk = engine::build_warm_archive(
        fx.fleet, fx.catalog, defaults.disk_fill, defaults.universal_head);
    const engine::WarmArchive reference = engine::build_warm_archive(
        fx.fleet, fx.catalog, defaults.disk_fill, defaults.universal_head,
        engine::WarmBuildMode::kWriteThrough);
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    expect_identical_archives(bulk, reference, fx);
  }
}

TEST(WarmupTest, GdSizeSnapshotsTheWriteThroughCache) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.fleet.server.policy = cdn::PolicyKind::kGdSize;
  WarmFixture fx(scenario);
  const engine::WarmArchive automatic =
      engine::build_warm_archive(fx.fleet, fx.catalog, 0.92, true);
  const engine::WarmArchive reference = engine::build_warm_archive(
      fx.fleet, fx.catalog, 0.92, true, engine::WarmBuildMode::kWriteThrough);
  expect_identical_archives(automatic, reference, fx);

  // The snapshot respects each level's capacity on every server index ...
  const auto ladder = client::default_bitrate_ladder();
  const double tau = fx.catalog.chunk_duration_s();
  const cdn::AtsConfig& server = scenario.fleet.server;
  for (std::uint32_t sidx = 0; sidx < fx.fleet.servers_per_pop(); ++sidx) {
    std::uint64_t ram_bytes = 0;
    std::uint64_t disk_bytes = 0;
    for (std::uint32_t video = 0; video < fx.catalog.size(); ++video) {
      for (std::uint32_t c = 0; c < fx.catalog.video(video).chunk_count; ++c) {
        for (const std::uint32_t rung : ladder) {
          const std::uint64_t size = cdn::chunk_bytes_vbr(rung, tau, video, c);
          switch (automatic.peek(sidx, cdn::ChunkKey{video, c, rung})) {
            case CacheLevel::kRam: ram_bytes += size; break;
            case CacheLevel::kDisk: disk_bytes += size; break;
            case CacheLevel::kMiss: break;
          }
        }
      }
    }
    EXPECT_LE(ram_bytes, server.ram_bytes) << "server " << sidx;
    EXPECT_LE(disk_bytes, server.disk_bytes) << "server " << sidx;
  }

  // ... and is the policy's own: GD-size keeps a different RAM set than LRU.
  scenario.fleet.server.policy = cdn::PolicyKind::kLru;
  const cdn::Fleet lru_fleet(scenario.fleet, fx.catalog.size());
  const engine::WarmArchive lru =
      engine::build_warm_archive(lru_fleet, fx.catalog, 0.92, true);
  EXPECT_NE(automatic.count(CacheLevel::kRam), lru.count(CacheLevel::kRam));
}

TEST(WarmupTest, KeysOutsideTheCatalogOrLadderMiss) {
  WarmFixture fx;
  const engine::WarmArchive archive =
      engine::build_warm_archive(fx.fleet, fx.catalog, 0.92, true);
  const auto ladder = client::default_bitrate_ladder();
  // Video 0 is the hottest video of its server: fully resident.
  const std::uint32_t owner = fx.fleet.server_index_for_video(0);
  const std::uint32_t chunks = fx.catalog.video(0).chunk_count;
  const cdn::ChunkKey last{0, chunks - 1, ladder.back()};
  ASSERT_NE(archive.peek(owner, last), CacheLevel::kMiss);

  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t videos = static_cast<std::uint32_t>(fx.catalog.size());
  const cdn::ChunkKey absent[] = {
      {videos, 0, ladder.front()},       // video out of range
      {kMax, 0, ladder.front()},         // far out of range
      {0, chunks, ladder.back()},        // chunk past chunk_count
      {0, kMax, ladder.back()},          // far past chunk_count
      {0, 0, ladder.front() + 1},        // bitrate off the ladder
      {0, 0, 0},                         // bitrate 0
      {0, 0, kMax},                      // bitrate far above the ladder
  };
  for (const cdn::ChunkKey& key : absent) {
    EXPECT_EQ(archive.slot(key), cdn::WarmArchive::kNoSlot)
        << key.video_id << "/" << key.chunk_index << "/" << key.bitrate_kbps;
    for (std::uint32_t sidx = 0; sidx < fx.fleet.servers_per_pop(); ++sidx) {
      EXPECT_EQ(archive.peek(sidx, key), CacheLevel::kMiss);
    }
  }
  // A server index that does not own the video misses, as does an index
  // past the PoP's servers and the cold (unbuilt) archive.
  for (std::uint32_t sidx = 0; sidx <= fx.fleet.servers_per_pop(); ++sidx) {
    if (sidx == owner) continue;
    EXPECT_EQ(archive.peek(sidx, last), CacheLevel::kMiss) << "server " << sidx;
  }
  EXPECT_EQ(engine::WarmArchive{}.peek(owner, last), CacheLevel::kMiss);
  EXPECT_EQ(engine::WarmArchive{}.slot_count(), 0u);
}

}  // namespace
}  // namespace vstream
