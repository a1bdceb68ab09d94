// Instrumentation records — the library's equivalent of the paper's
// Tables 2 and 3.
//
// Player side and CDN side are logged independently (as in production,
// where they are separate logging systems joined offline by sessionID and
// chunkID).  Analyses must only use what these records expose; simulator
// ground truth stays out of them.
#pragma once

#include <cstdint>
#include <string>

#include "cdn/cache.h"
#include "cdn/overload.h"
#include "client/user_agent.h"
#include "net/path_model.h"
#include "net/prefix.h"
#include "net/tcp_info.h"
#include "sim/time.h"

namespace vstream::telemetry {

/// Table 2, "Player (Delivery)" + "Player (Rendering)" rows.
struct PlayerChunkRecord {
  std::uint64_t session_id = 0;
  std::uint32_t chunk_id = 0;
  sim::Ms request_sent_ms = 0.0;  ///< when the HTTP GET left the player
                                  ///< (session-relative clock)
  sim::Ms dfb_ms = 0.0;           ///< first-byte delay D_FB
  sim::Ms dlb_ms = 0.0;           ///< last-byte delay D_LB
  std::uint32_t bitrate_kbps = 0;

  // Playout / rendering.
  sim::Ms rebuffer_ms = 0.0;        ///< bufdur: stall time during this chunk
  std::uint32_t rebuffer_count = 0; ///< bufcount
  bool visible = true;              ///< vis
  double avg_fps = 0.0;             ///< avgfr
  std::uint32_t dropped_frames = 0; ///< dropfr
  std::uint32_t total_frames = 0;

  // Failure recovery (player-side request machinery).  dfb_ms includes
  // recovery_ms: the player measures first-byte delay from the *first*
  // request it sent for the chunk.
  std::uint32_t retries = 0;     ///< re-issued requests for this chunk
  std::uint32_t timeouts = 0;    ///< attempts abandoned at the request timeout
  bool failed_over = false;      ///< the chunk switched serving server
  sim::Ms recovery_ms = 0.0;     ///< time burned in timeouts + backoff

  /// Client-observed download rate in seconds-of-video per second:
  /// tau / (D_FB + D_LB)  (§4.4-1).
  double download_rate(double chunk_duration_s) const {
    const sim::Ms total = dfb_ms + dlb_ms;
    return total <= 0.0 ? 0.0 : sim::seconds(chunk_duration_s) / total;
  }

  bool operator==(const PlayerChunkRecord&) const = default;
};

/// Table 2, "CDN (App layer)" row.
struct CdnChunkRecord {
  std::uint64_t session_id = 0;
  std::uint32_t chunk_id = 0;
  sim::Ms dwait_ms = 0.0;
  sim::Ms dopen_ms = 0.0;
  sim::Ms dread_ms = 0.0;
  sim::Ms dbe_ms = 0.0;  ///< 0 unless cache miss
  cdn::CacheLevel cache_level = cdn::CacheLevel::kMiss;
  std::uint64_t chunk_bytes = 0;
  /// Serving server of the successful attempt.  Differs from the session
  /// record's assignment after a mid-session failover.
  std::uint32_t pop = 0;
  std::uint32_t server = 0;
  /// Served from cache while the origin was unreachable (degraded mode).
  bool served_stale = false;

  // Overload protection (see cdn/overload.h).  shed/budget_denied are
  // sticky over the chunk's failed attempts; the rest describe the
  // delivering serve.
  bool shed = false;           ///< an attempt was load-shed (local 503)
  bool hedged = false;         ///< a hedge fetch raced a second replica
  bool hedge_won = false;      ///< the hedge's first byte won
  bool budget_denied = false;  ///< a retry was denied a backend re-fetch
  bool served_swr = false;     ///< stale-while-revalidate (open breaker)
  /// Serving server's breaker state observed by the delivering serve.
  cdn::BreakerState breaker = cdn::BreakerState::kClosed;

  bool cache_hit() const { return cache_level != cdn::CacheLevel::kMiss; }
  /// Total server-side latency (Fig. 5 "total").
  sim::Ms server_total_ms() const { return dwait_ms + dopen_ms + dread_ms; }
  /// D_CDN of Eq. 1 (server latency excluding the backend share).
  sim::Ms dcdn_ms() const { return server_total_ms() - dbe_ms; }

  bool operator==(const CdnChunkRecord&) const = default;
};

/// Table 2, "CDN (TCP layer)" row: one tcp_info sample with chunk context.
struct TcpSnapshotRecord {
  std::uint64_t session_id = 0;
  std::uint32_t chunk_id = 0;  ///< chunk being served when sampled
  sim::Ms at_ms = 0.0;         ///< session-relative sample time
  net::TcpInfo info;

  bool operator==(const TcpSnapshotRecord&) const = default;
};

/// Table 3, player row.
struct PlayerSessionRecord {
  std::uint64_t session_id = 0;
  net::IpV4 client_ip = 0;   ///< as reported by the client-side beacon
  std::string user_agent;
  double video_duration_s = 0.0;
  sim::Ms start_time_ms = 0.0;    ///< session arrival on the fleet clock
  sim::Ms startup_ms = 0.0;       ///< time to first frame
  std::uint32_t chunks_requested = 0;
  /// False when the player gave up on an unrecoverable chunk (every retry
  /// and failover exhausted) and ended the session early.
  bool completed = true;

  bool operator==(const PlayerSessionRecord&) const = default;
};

/// Table 3, CDN row.
struct CdnSessionRecord {
  std::uint64_t session_id = 0;
  net::IpV4 observed_ip = 0;  ///< source IP of the HTTP connection — the
                              ///< proxy's IP when one is in the way
  std::string observed_user_agent;
  std::uint32_t pop = 0;
  std::uint32_t server = 0;
  std::string org;  ///< AS / ISP / organization
  net::AccessType access = net::AccessType::kResidential;
  std::string city;
  std::string country;
  double client_distance_km = 0.0;  ///< geo-located client <-> PoP distance

  bool operator==(const CdnSessionRecord&) const = default;
};

}  // namespace vstream::telemetry
