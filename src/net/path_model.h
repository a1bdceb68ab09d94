// Network path model between a CDN server and a client.
//
// The paper's network findings (§4.2) attribute performance to a small set
// of path properties: baseline propagation delay (distance), latency
// variability (residential vs enterprise paths), random and bursty packet
// loss, and throughput limits with self-loading queueing delay.  PathModel
// captures exactly those properties and hands the TCP model per-round RTT
// samples and the per-segment loss probabilities.
//
// Loss comes from two processes, each an independent per-segment
// probability that the TCP model turns into one binomial loss count per
// round:
//   * random loss (rare on good paths; heterogeneous across client
//     prefixes), and
//   * drop-tail overflow at the bottleneck buffer, for the segments by
//     which the in-flight window exceeds the pipe (BDP + buffer).  This
//     is what makes end-of-slow-start losses bursty (§4.2-3) while
//     congestion-avoidance losses trickle.
//
// Latency variability comes from per-round jitter plus episodic "spikes"
// (path-change/middlebox congestion events lasting many rounds) — the
// mechanism behind enterprise paths' CV(SRTT) > 1 sessions (Table 4).
#pragma once

#include <cstdint>

#include "sim/rng.h"
#include "sim/time.h"

namespace vstream::net {

/// Broad classes of client access path; used to pick jitter/loss profiles.
enum class AccessType : std::uint8_t {
  kResidential,    ///< cable/fibre eyeball networks — low jitter
  kEnterprise,     ///< corporate networks, VPNs, proxies — high jitter
  kInternational,  ///< long transoceanic paths — high base RTT
};

const char* to_string(AccessType type);

struct PathConfig {
  sim::Ms base_rtt_ms = 20.0;      ///< propagation + access, no queueing
  sim::Ms jitter_median_ms = 1.0;  ///< median of per-round additive jitter
  double jitter_sigma = 0.6;       ///< log-normal shape of jitter
  double random_loss = 0.0;        ///< per-segment random loss probability
  double bottleneck_kbps = 20'000;  ///< path capacity
  sim::Ms max_queue_ms = 60.0;     ///< bottleneck buffer depth (self-loading cap)
  /// Per-segment drop probability for segments beyond the pipe capacity
  /// (BDP + buffer) in one round — drop-tail overflow.
  double tail_drop_prob = 0.5;

  // Episodic latency spikes (congestion events, path changes).
  double spike_prob_per_round = 0.0;  ///< chance a spike starts each round
  sim::Ms spike_median_ms = 100.0;    ///< log-normal spike magnitude
  double spike_sigma = 0.8;
  std::uint32_t spike_min_rounds = 20;
  std::uint32_t spike_max_rounds = 120;
};

/// Reasonable defaults per access type at a given propagation distance.
PathConfig make_path_config(AccessType type, double distance_km,
                            double bottleneck_kbps);

/// Mutable path state (current bottleneck queue, active latency spike)
/// plus the sampling logic.
class PathModel {
 public:
  explicit PathModel(PathConfig config) : config_(config) {}

  const PathConfig& config() const { return config_; }

  /// One RTT observation for a window of `window_segments` segments of
  /// `segment_bytes` each: base + jitter + spike + current queueing delay.
  /// Also advances the self-loading queue and spike state.
  sim::Ms sample_rtt(std::uint32_t window_segments, std::uint32_t segment_bytes,
                     sim::Rng& rng);

  /// Bottleneck pipe size in segments: BDP plus buffer capacity.  Windows
  /// beyond this overflow the buffer (drop-tail).
  double pipe_segments(std::uint32_t segment_bytes) const;

  /// Milliseconds to serialize a window at the bottleneck capacity.
  sim::Ms serialization_ms(std::uint32_t window_segments,
                           std::uint32_t segment_bytes) const;

  /// Current standing queue delay (exposed for tests).
  sim::Ms queue_ms() const { return queue_ms_; }

  /// Whether a latency spike is in progress (exposed for tests).
  bool spiking() const { return spike_rounds_left_ > 0; }

  /// Override the random per-segment loss probability (scripted loss
  /// schedules, e.g. the Fig. 13 loss-timing case study).
  void set_random_loss(double p) { config_.random_loss = p; }

  /// Idle period: the bottleneck queue drains between chunk downloads.
  void drain(sim::Ms idle_ms);

 private:
  PathConfig config_;
  sim::Ms queue_ms_ = 0.0;
  std::uint32_t spike_rounds_left_ = 0;
  sim::Ms spike_ms_ = 0.0;
};

}  // namespace vstream::net
