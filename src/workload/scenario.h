// Scenario: the complete configuration of one simulated deployment —
// catalog, client population, CDN fleet, transport, player — plus presets.
#pragma once

#include <cstdint>

#include "cdn/fleet.h"
#include "client/abr.h"
#include "sim/time.h"
#include "client/playback_buffer.h"
#include "net/tcp_model.h"
#include "workload/catalog.h"
#include "workload/population.h"
#include "workload/session_generator.h"

namespace vstream::workload {

/// Player-side failure recovery policy: per-chunk request timeouts with
/// capped exponential backoff, and failover to another server when a
/// request keeps dying.  Drives the recovery loop in engine::SessionRuntime.
struct RecoveryPolicy {
  /// Client abandons a request whose first byte has not arrived by then.
  sim::Ms request_timeout_ms = 4'000.0;
  /// Re-issues after a timeout/error before the player gives up on the
  /// chunk (and the viewer on the session).  Total attempts = retries + 1.
  std::uint32_t max_retries = 4;
  /// Backoff before attempt k: base * factor^(k-1), capped, with uniform
  /// jitter in [0.5, 1.0] of that value.
  sim::Ms backoff_base_ms = 250.0;
  sim::Ms backoff_cap_ms = 4'000.0;
  double backoff_factor = 2.0;
  /// Fail over to another server after this many consecutive failed
  /// attempts on the current one (a down server fails over immediately).
  std::uint32_t failover_after_attempts = 1;
};

struct Scenario {
  std::uint64_t seed = 20160516;  ///< the paper's arXiv date, why not
  std::size_t session_count = 4'000;

  CatalogConfig catalog;
  PopulationConfig population;
  SessionGeneratorConfig sessions;
  cdn::FleetConfig fleet;
  cdn::RoutingPolicy routing = cdn::RoutingPolicy::kCacheFocused;
  net::TcpConfig tcp;
  client::PlaybackBufferConfig buffer;
  client::AbrKind abr = client::AbrKind::kHybrid;
  RecoveryPolicy recovery;

  /// tcp_info sampling cadence (500 ms in production, §2.1).
  double tcp_sample_interval_ms = 500.0;

  /// Per-session receiver window draw (log-normal, in segments).  2015-era
  /// client OSes autotuned receive buffers to modest sizes; sessions whose
  /// rwnd sits below the path pipe never overflow the bottleneck and stay
  /// loss-free (§4.2-3: ~40% of sessions see no loss).  0 disables.
  double rwnd_median_segments = 150.0;
  double rwnd_sigma = 0.7;

  /// Diurnal/peak-hour congestion: on congestion-prone prefixes (a
  /// population property), each session runs during a congestion epoch
  /// with this probability and its base RTT carries a large extra offset
  /// for the whole session.  Because clean sessions of the same prefix
  /// stay fast, this drives the cross-session path variability of Fig. 10
  /// without making prefixes *persistently* slow (Fig. 9 stays
  /// distance/enterprise-driven).
  double congestion_epoch_probability = 0.35;
  double congestion_offset_median_ms = 150.0;
  double congestion_offset_sigma = 0.7;

  /// QoE-sensitive engagement (Krishnan & Sitaraman [25], Dobrian et al.
  /// [14], which the paper's QoE framing builds on): after each
  /// re-buffering event the viewer abandons the session with this
  /// probability.  0 (default) keeps watch time independent of QoE, as the
  /// calibration scenarios assume.
  double stall_abandonment_probability = 0.0;

  /// §4.3-1 recommendation (2): rate-based ABRs relying on client-side
  /// measurements "should exclude these outliers in their
  /// throughput/latency estimations."  When set, a chunk whose
  /// instantaneous throughput exceeds 4x the smoothed estimate is not fed
  /// into the ABR's EWMA (it is almost certainly stack-buffered delivery,
  /// not network speed).
  bool abr_filters_throughput_outliers = false;
};

/// Default scenario calibrated to §3/§4: Zipf head 10% -> 66%, ~2% session
/// chunk miss rate, ~35% of chunks behind the retry timer, enterprise
/// jitter, platform mixes, etc.
Scenario paper_scenario();

/// Smaller/faster variant for unit and integration tests.
Scenario test_scenario();

}  // namespace vstream::workload
