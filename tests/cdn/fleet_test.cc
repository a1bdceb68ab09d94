#include "cdn/fleet.h"

#include <gtest/gtest.h>

#include <set>

#include "net/geo.h"
#include "serve_session.h"

namespace vstream::cdn {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.pop_count = 3;
  config.servers_per_pop = 4;
  config.server.ram_bytes = 1ull << 20;
  config.server.disk_bytes = 8ull << 20;
  return config;
}

TEST(FleetTest, RejectsDegenerateConfigs) {
  FleetConfig config = small_fleet();
  config.pop_count = 0;
  EXPECT_THROW(Fleet(config, 1'000), std::invalid_argument);
  config = small_fleet();
  config.servers_per_pop = 0;
  EXPECT_THROW(Fleet(config, 1'000), std::invalid_argument);
  config = small_fleet();
  config.pop_count = 10'000;  // more than the city table
  EXPECT_THROW(Fleet(config, 1'000), std::invalid_argument);
}

TEST(FleetTest, NearestPopIsGeographicallyNearest) {
  const Fleet fleet(small_fleet(), 1'000);
  // A client sitting exactly on a PoP city must be routed to it.
  for (std::uint32_t pop = 0; pop < fleet.pop_count(); ++pop) {
    EXPECT_EQ(fleet.nearest_pop(fleet.pop_city(pop).location), pop);
  }
}

TEST(FleetTest, CacheFocusedRoutingIsStablePerVideo) {
  const Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef a =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  for (std::uint64_t session = 2; session < 50; ++session) {
    const ServerRef b =
        fleet.route(client, 42, 500, session, RoutingPolicy::kCacheFocused);
    EXPECT_EQ(a, b) << "cache-focused routing must ignore the session";
  }
}

TEST(FleetTest, PartitionedRoutingSpreadsPopularHead) {
  const Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  std::set<std::uint32_t> servers;
  // Rank 5 of 1000 is inside the top-10% head: sessions spread.
  for (std::uint64_t session = 0; session < 100; ++session) {
    servers.insert(fleet
                       .route(client, 42, 5, session,
                              RoutingPolicy::kPopularityPartitioned)
                       .server);
  }
  EXPECT_EQ(servers.size(), fleet.servers_per_pop());
}

TEST(FleetTest, PartitionedRoutingKeepsTailConcentrated) {
  const Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  std::set<std::uint32_t> servers;
  // Rank 900 is in the tail: cache-focused behaviour even when partitioned.
  for (std::uint64_t session = 0; session < 100; ++session) {
    servers.insert(fleet
                       .route(client, 42, 900, session,
                              RoutingPolicy::kPopularityPartitioned)
                       .server);
  }
  EXPECT_EQ(servers.size(), 1u);
}

TEST(FleetTest, ServerIndexForVideoMatchesRouting) {
  const Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{41.9, -87.6};
  for (std::uint32_t video = 0; video < 200; ++video) {
    const ServerRef ref =
        fleet.route(client, video, 999, 7, RoutingPolicy::kCacheFocused);
    EXPECT_EQ(ref.server, fleet.server_index_for_video(video));
  }
}

TEST(FleetTest, VideosSpreadAcrossServers) {
  const Fleet fleet(small_fleet(), 1'000);
  std::set<std::uint32_t> indexes;
  for (std::uint32_t video = 0; video < 100; ++video) {
    indexes.insert(fleet.server_index_for_video(video));
  }
  EXPECT_EQ(indexes.size(), fleet.servers_per_pop());
}

TEST(FleetTest, ServersAreIndependentInstances) {
  Fleet fleet(small_fleet(), 1'000);
  fleet.server({0, 0}).set_backend_down(true);
  sim::Rng rng(1);
  const auto serve_miss = [&](ServerRef ref) {
    ServeSession session(fleet.server(ref));
    return session.serve(ChunkKey{1, 0, 1500}, 0.0, rng);
  };
  // Only the degraded server turns its miss into an error response.
  EXPECT_TRUE(serve_miss({0, 0}).failed);
  EXPECT_FALSE(serve_miss({0, 1}).failed);
  EXPECT_FALSE(serve_miss({1, 0}).failed);
}

TEST(FleetTest, FailoverRoutesAroundDownServer) {
  Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  fleet.set_server_down(original);
  const ServerRef rerouted =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  EXPECT_EQ(rerouted.pop, original.pop);
  EXPECT_NE(rerouted.server, original.server);
  EXPECT_FALSE(fleet.is_down(rerouted));

  // Recovery restores the cache-focused assignment.
  fleet.set_server_down(original, false);
  EXPECT_EQ(fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused),
            original);
}

TEST(FleetTest, FailoverSkipsMultipleDownServers) {
  Fleet fleet(small_fleet(), 1'000);  // 4 servers per PoP
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  fleet.set_server_down(original);
  fleet.set_server_down(
      {original.pop, (original.server + 1) % fleet.servers_per_pop()});
  const ServerRef rerouted =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  EXPECT_FALSE(fleet.is_down(rerouted));
}

TEST(FleetTest, WholePopDownFailsOverToNearestLivePop) {
  Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  for (std::uint32_t s = 0; s < fleet.servers_per_pop(); ++s) {
    fleet.set_server_down({original.pop, s});
  }
  const ServerRef rerouted =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  EXPECT_NE(rerouted.pop, original.pop);
  EXPECT_FALSE(fleet.is_down(rerouted));
  // Cross-PoP rescue lands on the video's cache-focused server there: the
  // warm cache, paying only the extra propagation RTT (§4.1).
  EXPECT_EQ(rerouted.server, fleet.server_index_for_video(42));

  // Recovery routes back to the original warm assignment.
  for (std::uint32_t s = 0; s < fleet.servers_per_pop(); ++s) {
    fleet.set_server_down({original.pop, s}, false);
  }
  EXPECT_EQ(fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused),
            original);
}

TEST(FleetTest, PopBlackoutIsIndependentOfServerFlags) {
  Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  fleet.set_pop_down(original.pop);
  EXPECT_TRUE(fleet.is_pop_down(original.pop));
  EXPECT_FALSE(fleet.pop_live(original.pop));
  EXPECT_TRUE(fleet.is_down(original));
  const ServerRef rerouted =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  EXPECT_NE(rerouted.pop, original.pop);

  // Lifting the blackout restores every server that was not itself crashed.
  fleet.set_pop_down(original.pop, false);
  EXPECT_FALSE(fleet.is_down(original));
  EXPECT_EQ(fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused),
            original);
}

TEST(FleetTest, WholeFleetDownKeepsAssignment) {
  Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  for (std::uint32_t pop = 0; pop < fleet.pop_count(); ++pop) {
    fleet.set_pop_down(pop);
  }
  EXPECT_TRUE(fleet.all_down());
  // Degenerate case: nothing better exists, the nominal assignment comes
  // back with is_down() still true — the caller owns the error model.
  const ServerRef rerouted =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);
  EXPECT_EQ(rerouted, original);
  EXPECT_TRUE(fleet.is_down(rerouted));
}

TEST(FleetTest, FailoverPrefersSamePopThenWarmCrossPop) {
  Fleet fleet(small_fleet(), 1'000);
  const net::GeoPoint client{40.7, -74.0};
  const ServerRef original =
      fleet.route(client, 42, 500, 1, RoutingPolicy::kCacheFocused);

  // Same PoP first: the neighbour server (cold for this video).
  const ServerRef next = fleet.failover(original, client, 42);
  EXPECT_EQ(next.pop, original.pop);
  EXPECT_NE(next.server, original.server);
  EXPECT_FALSE(fleet.is_down(next));

  // With the PoP dark, the rescue is the warm server of the nearest live
  // other PoP.
  fleet.set_pop_down(original.pop);
  const ServerRef cross = fleet.failover(original, client, 42);
  EXPECT_NE(cross.pop, original.pop);
  EXPECT_EQ(cross.server, fleet.server_index_for_video(42));
  EXPECT_FALSE(fleet.is_down(cross));

  // Whole fleet dead: failover has nowhere to go and reports `from`.
  for (std::uint32_t pop = 0; pop < fleet.pop_count(); ++pop) {
    fleet.set_pop_down(pop);
  }
  EXPECT_EQ(fleet.failover(original, client, 42), original);
}

TEST(FleetTest, RoutingPolicyNames) {
  EXPECT_STREQ(to_string(RoutingPolicy::kCacheFocused), "cache-focused");
  EXPECT_STREQ(to_string(RoutingPolicy::kPopularityPartitioned),
               "popularity-partitioned");
}

}  // namespace
}  // namespace vstream::cdn
