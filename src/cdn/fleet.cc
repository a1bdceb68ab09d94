#include "cdn/fleet.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vstream::cdn {

namespace {

std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

const char* to_string(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kCacheFocused: return "cache-focused";
    case RoutingPolicy::kPopularityPartitioned: return "popularity-partitioned";
  }
  return "unknown";
}

Fleet::Fleet(FleetConfig config, std::size_t catalog_size)
    : config_(config),
      popular_head_ranks_(static_cast<std::size_t>(
          config.popular_head_fraction * static_cast<double>(catalog_size))) {
  const auto cities = net::us_cities();
  if (config_.pop_count == 0 || config_.servers_per_pop == 0) {
    throw std::invalid_argument("Fleet: need at least one PoP and server");
  }
  if (config_.pop_count > cities.size()) {
    throw std::invalid_argument("Fleet: more PoPs than available cities");
  }
  pop_cities_.assign(cities.begin(), cities.begin() + config_.pop_count);
  servers_.assign(static_cast<std::size_t>(config_.pop_count) *
                      config_.servers_per_pop,
                  AtsServer(config_.server, config_.backend));
  down_.assign(servers_.size(), false);
  pop_down_.assign(config_.pop_count, false);
}

void Fleet::set_server_down(ServerRef ref, bool down) {
  down_.at(static_cast<std::size_t>(ref.pop) * config_.servers_per_pop +
           ref.server) = down;
}

void Fleet::set_pop_down(std::uint32_t pop, bool down) {
  pop_down_.at(pop) = down;
}

bool Fleet::is_down(ServerRef ref) const {
  return pop_down_.at(ref.pop) ||
         down_.at(static_cast<std::size_t>(ref.pop) * config_.servers_per_pop +
                  ref.server);
}

bool Fleet::pop_live(std::uint32_t pop) const {
  if (pop_down_.at(pop)) return false;
  for (std::uint32_t s = 0; s < config_.servers_per_pop; ++s) {
    if (!is_down({pop, s})) return true;
  }
  return false;
}

bool Fleet::all_down() const {
  for (std::uint32_t pop = 0; pop < config_.pop_count; ++pop) {
    if (pop_live(pop)) return false;
  }
  return true;
}

std::uint32_t Fleet::nearest_live_pop(const net::GeoPoint& client,
                                      std::uint32_t exclude_pop) const {
  std::uint32_t best = config_.pop_count;
  double best_km = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < pop_cities_.size(); ++i) {
    if (i == exclude_pop || !pop_live(i)) continue;
    const double km = net::haversine_km(client, pop_cities_[i].location);
    if (km < best_km) {
      best_km = km;
      best = i;
    }
  }
  return best;
}

std::uint32_t Fleet::nearest_pop(const net::GeoPoint& client) const {
  std::uint32_t best = 0;
  double best_km = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < pop_cities_.size(); ++i) {
    const double km = net::haversine_km(client, pop_cities_[i].location);
    if (km < best_km) {
      best_km = km;
      best = i;
    }
  }
  return best;
}

void Fleet::add_overload_window(ServerRef ref, sim::Ms start, sim::Ms end,
                                double factor) {
  overload_windows_.push_back({ref, start, end, factor});
}

double Fleet::health_score(ServerRef ref, sim::Ms now) const {
  double factor = 1.0;
  for (const OverloadWindow& window : overload_windows_) {
    if (window.ref == ref && now >= window.start && now < window.end) {
      factor = std::max(factor, window.factor);
    }
  }
  const double watermark = config_.server.overload.shed_watermark;
  return (watermark <= 0.0 || factor <= watermark) ? 1.0 : watermark / factor;
}

ServerRef Fleet::route(const net::GeoPoint& client, std::uint32_t video_id,
                       std::size_t video_rank, std::uint64_t session_token,
                       RoutingPolicy policy, sim::Ms now) const {
  ServerRef ref;
  ref.pop = nearest_pop(client);
  const bool spread =
      policy == RoutingPolicy::kPopularityPartitioned &&
      video_rank <= popular_head_ranks_;
  // Cache-focused: all requests for a video land on one server of the PoP.
  // Partitioned: the popular head is spread per-session across servers.
  const std::uint64_t token =
      spread ? mix64(video_id ^ mix64(session_token)) : mix64(video_id);
  ref.server = static_cast<std::uint32_t>(token % config_.servers_per_pop);
  // Entirely-dead PoP: cross-PoP failover to the nearest live PoP.  The
  // rescued sessions pay the extra propagation RTT; the video's
  // cache-focused server index is PoP-independent, so the replacement PoP
  // serves it with a warm cache.
  if (!pop_live(ref.pop)) {
    const std::uint32_t live = nearest_live_pop(client, config_.pop_count);
    if (live < config_.pop_count) ref.pop = live;
    // Whole fleet down: keep the nominal assignment; is_down(ref) stays
    // true and callers model the error (timeouts + abandonment).
  }
  // Fail over within the PoP: probe the next indexes until a live server
  // is found.
  for (std::uint32_t probe = 0;
       probe < config_.servers_per_pop && is_down(ref); ++probe) {
    ref.server = (ref.server + 1) % config_.servers_per_pop;
  }
  // Health-aware steering: leave the nominal (hot-cache) assignment only
  // when it is unhealthy, and then take the healthiest live alternative of
  // the PoP (earliest probe wins ties).  Deterministic: health depends only
  // on the registered overload windows / breaker state at `now`.
  if (!is_down(ref) && health_score(ref, now) < 1.0) {
    ServerRef best = ref;
    double best_score = health_score(ref, now);
    for (std::uint32_t probe = 1; probe < config_.servers_per_pop; ++probe) {
      const ServerRef candidate{
          ref.pop, (ref.server + probe) % config_.servers_per_pop};
      if (is_down(candidate)) continue;
      const double score = health_score(candidate, now);
      if (score > best_score) {
        best_score = score;
        best = candidate;
      }
    }
    ref = best;
  }
  return ref;
}

ServerRef Fleet::failover(ServerRef from, const net::GeoPoint& client,
                          std::uint32_t video_id, sim::Ms now) const {
  // Same-PoP first: rotate to the next live server (cold cache for this
  // video, but no distance penalty).  Among live candidates the healthiest
  // wins; earliest probe breaks ties, so with uniform health this is the
  // original next-live-server rotation.
  {
    ServerRef best = from;
    double best_score = -1.0;
    for (std::uint32_t probe = 1; probe < config_.servers_per_pop; ++probe) {
      const ServerRef candidate{
          from.pop, (from.server + probe) % config_.servers_per_pop};
      if (is_down(candidate)) continue;
      const double score = health_score(candidate, now);
      if (score > best_score) {
        best_score = score;
        best = candidate;
      }
      if (best_score >= 1.0) break;  // can't beat healthy; keep earliest
    }
    if (best_score >= 0.0) return best;
  }
  // Cross-PoP: the video's cache-focused server in the nearest live other
  // PoP (warm cache, extra RTT).
  const std::uint32_t live = nearest_live_pop(client, from.pop);
  if (live < config_.pop_count) {
    ServerRef candidate{live, server_index_for_video(video_id)};
    for (std::uint32_t probe = 0;
         probe < config_.servers_per_pop && is_down(candidate); ++probe) {
      candidate.server = (candidate.server + 1) % config_.servers_per_pop;
    }
    return candidate;
  }
  return from;  // nothing live anywhere; the caller keeps timing out
}

std::uint32_t Fleet::server_index_for_video(std::uint32_t video_id) const {
  return static_cast<std::uint32_t>(mix64(video_id) % config_.servers_per_pop);
}

AtsServer& Fleet::server(ServerRef ref) {
  return servers_.at(static_cast<std::size_t>(ref.pop) *
                         config_.servers_per_pop +
                     ref.server);
}

const AtsServer& Fleet::server(ServerRef ref) const {
  return servers_.at(static_cast<std::size_t>(ref.pop) *
                         config_.servers_per_pop +
                     ref.server);
}

const net::City& Fleet::pop_city(std::uint32_t pop) const {
  return pop_cities_.at(pop);
}

}  // namespace vstream::cdn
