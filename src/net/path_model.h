// Network path model between a CDN server and a client.
//
// The paper's network findings (§4.2) attribute performance to a small set
// of path properties: baseline propagation delay (distance), latency
// variability (residential vs enterprise paths), random and bursty packet
// loss, and throughput limits with self-loading queueing delay.  PathModel
// captures exactly those properties and hands the TCP model per-round RTT
// samples and per-round loss counts.
//
// Loss comes from two processes, each an independent per-segment
// probability:
//   * random loss (rare on good paths; heterogeneous across client
//     prefixes).  random_losses() counts a round's losses off a
//     per-connection countdown of clean segments before the next loss — a
//     geometric gap, exact by memorylessness — so a round with no loss
//     draws nothing; and
//   * drop-tail overflow at the bottleneck buffer, for the segments by
//     which the in-flight window exceeds the pipe (BDP + buffer), which the
//     TCP model draws as one binomial count per round.  This is what makes
//     end-of-slow-start losses bursty (§4.2-3) while congestion-avoidance
//     losses trickle.
//
// Latency variability comes from per-round log-normal jitter plus episodic
// "spikes" (path-change/middlebox congestion events lasting many rounds) —
// the mechanism behind enterprise paths' CV(SRTT) > 1 sessions (Table 4).
// A spike starts in each quiet round with a fixed probability; a countdown
// of quiet rounds before the next start draws that too, once per spike.
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
  /// Throws std::invalid_argument for a non-positive jitter median, or a
  /// non-positive spike median on a path that can spike.
  explicit PathModel(PathConfig config);

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
  /// schedules, e.g. the Fig. 13 loss-timing case study).  A new p
  /// redraws the loss countdown; the same p keeps it.
  void set_random_loss(double p);

  /// Random losses among the next `segments` segments sent, distributed
  /// as Binomial(segments, random_loss).  Counts down to the next loss,
  /// so it draws once per loss; at p <= 0 (or NaN) it loses nothing and
  /// at p >= 1 every segment, and neither draws.
  std::uint32_t random_losses(std::uint32_t segments, sim::Rng& rng);

  /// Idle period: the bottleneck queue drains between chunk downloads.
  void drain(sim::Ms idle_ms);

 private:
  PathConfig config_;
  // The distributions' fixed logarithms, taken once per path: ln(jitter
  // median), ln(spike median), log1p(-random_loss), log1p(-spike prob).
  double log_jitter_median_;
  double log_spike_median_;
  double log_fail_;
  double log_quiet_;
  // Geometric countdowns, drawn when first needed (-1 until then): clean
  // segments before the next random loss, quiet rounds before the next
  // spike starts.
  double segments_to_loss_ = -1.0;
  double rounds_to_spike_ = -1.0;
  sim::Ms queue_ms_ = 0.0;
  std::uint32_t spike_rounds_left_ = 0;
  sim::Ms spike_ms_ = 0.0;
};

}  // namespace vstream::net
