// CDN fleet: PoPs of ATS servers plus the traffic-engineering mapping.
//
// The paper's traffic engineering "maps clients to CDN nodes using a
// function of geography, latency, load, cache likelihood" and "tries to
// route clients to the server that is likely to have a hot cache" (§4.1).
// We model that as: nearest PoP by geography, then within the PoP a
// cache-focused server choice (hash of the video id, so each video's
// requests concentrate on one server).  The paper's §4.1-3 take-away —
// explicitly partitioning the popular head across servers — is the
// alternative routing policy used by the ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/ats_server.h"
#include "net/geo.h"

namespace vstream::cdn {

struct FleetConfig {
  std::uint32_t pop_count = 4;         ///< PoPs placed on the first N US cities
  std::uint32_t servers_per_pop = 4;
  AtsConfig server;
  BackendConfig backend;
  /// Fraction of the video head treated as "popular" by the partitioning
  /// policy (paper: top 10% of videos = 66% of playbacks).
  double popular_head_fraction = 0.10;
};

enum class RoutingPolicy {
  kCacheFocused,           ///< video -> one server per PoP (hot cache)
  kPopularityPartitioned,  ///< popular head spread across servers
};

const char* to_string(RoutingPolicy policy);

struct ServerRef {
  std::uint32_t pop = 0;
  std::uint32_t server = 0;
  friend bool operator==(const ServerRef&, const ServerRef&) = default;
};

class Fleet {
 public:
  /// `catalog_size` is needed to decide head membership for partitioning;
  /// ranks are 1-based with 1 the most popular video.
  Fleet(FleetConfig config, std::size_t catalog_size);

  std::uint32_t nearest_pop(const net::GeoPoint& client) const;

  /// Choose the serving server for a session.  `video_rank` is the video's
  /// popularity rank (1 = hottest); `session_token` spreads partitioned
  /// requests across servers.
  ///
  /// Failure semantics: a down server fails over to the next live server of
  /// the PoP; an entirely-dead PoP fails over to the nearest live PoP
  /// (paying the extra propagation RTT).  When the whole fleet is down the
  /// nominal assignment is returned with is_down(ref) still true — callers
  /// own the error model (engine::SessionRuntime times requests out,
  /// retries with backoff, and eventually abandons the session).
  ///
  /// `now` enables health-aware steering: a nominal assignment whose
  /// health_score(ref, now) is below 1.0 (inside an overload window) is
  /// swapped for the healthiest live server of the PoP.  With no overload
  /// windows every score is 1.0 and routing is unchanged.
  ServerRef route(const net::GeoPoint& client, std::uint32_t video_id,
                  std::size_t video_rank, std::uint64_t session_token,
                  RoutingPolicy policy, sim::Ms now = 0.0) const;

  /// Client-driven mid-session failover: the next live server a client
  /// should retry after `from` failed (down, timing out, or erroring).
  /// Prefers the PoP's other servers (cold cache for this video), then the
  /// video's cache-focused server in the nearest live other PoP (warm cache
  /// but extra RTT).  Returns `from` unchanged when nothing live exists.
  /// Among live same-PoP candidates the healthiest (health_score at `now`)
  /// wins, earliest probe breaking ties.
  ServerRef failover(ServerRef from, const net::GeoPoint& client,
                     std::uint32_t video_id, sim::Ms now = 0.0) const;

  AtsServer& server(ServerRef ref);
  const AtsServer& server(ServerRef ref) const;

  /// The within-PoP server index a video concentrates on under
  /// cache-focused routing (used for cache warming).
  std::uint32_t server_index_for_video(std::uint32_t video_id) const;

  /// Mark a server down/up.  route() fails over to the next live server of
  /// the PoP — whose cache was warmed for a *different* video set, so a
  /// failover also shows the cache-focused mapping's cold-cache cost
  /// ("directing client requests to different servers", §1).
  void set_server_down(ServerRef ref, bool down = true);
  /// Mark a whole PoP dark (power/uplink blackout), independent of the
  /// per-server flags: recovery restores exactly the servers that were not
  /// individually crashed.
  void set_pop_down(std::uint32_t pop, bool down = true);
  bool is_down(ServerRef ref) const;
  bool is_pop_down(std::uint32_t pop) const { return pop_down_.at(pop); }

  /// Drive a server's overload factor (faults::FaultKind::kOverload).
  void set_overload(ServerRef ref, double factor) {
    server(ref).set_overload(factor);
  }
  /// Register a deterministic overload window: between `start` and `end`
  /// the server's offered load is `factor` times nominal capacity.  The
  /// fault injector registers these from the schedule at construction, so
  /// health-aware routing is a pure function of (schedule, now) and
  /// identical on every shard — it never reads live serving state.
  void add_overload_window(ServerRef ref, sim::Ms start, sim::Ms end,
                           double factor);
  /// Routing health of a server at `now`: 1.0 when healthy; watermark /
  /// factor inside an overload window past the shed watermark.
  double health_score(ServerRef ref, sim::Ms now) const;
  /// True if at least one server of the PoP can serve.
  bool pop_live(std::uint32_t pop) const;
  /// True when no server anywhere can serve.
  bool all_down() const;

  const net::City& pop_city(std::uint32_t pop) const;
  std::uint32_t pop_count() const { return config_.pop_count; }
  std::uint32_t servers_per_pop() const { return config_.servers_per_pop; }
  const FleetConfig& config() const { return config_; }

 private:
  /// Nearest PoP with at least one live server, excluding `exclude_pop`
  /// (pass pop_count() to exclude nothing); pop_count() when none is live.
  std::uint32_t nearest_live_pop(const net::GeoPoint& client,
                                 std::uint32_t exclude_pop) const;

  struct OverloadWindow {
    ServerRef ref;
    sim::Ms start = 0.0;
    sim::Ms end = 0.0;
    double factor = 1.0;
  };

  FleetConfig config_;
  std::size_t popular_head_ranks_;
  std::vector<net::City> pop_cities_;
  std::vector<OverloadWindow> overload_windows_;
  std::vector<AtsServer> servers_;  // [pop * servers_per_pop + server]
  std::vector<bool> down_;
  std::vector<bool> pop_down_;
};

}  // namespace vstream::cdn
